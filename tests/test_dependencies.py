"""The package has no runtime dependencies: it imports and runs without numpy,
and importing the CLI loads none of the standard modules it avoids."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def run_python(code: str, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_importing_the_cli_loads_no_numpy(tmp_path):
    proc = run_python(
        "import apsel.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_avoided_module(tmp_path):
    # pytest itself has imported inspect and dataclasses, so the check needs a fresh interpreter
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "import_graph.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(ROOT / "src" / "apsel" / "cli.py")


def test_every_subcommand_runs_with_numpy_absent(tmp_path):
    commands = [
        ["gen-trace", "--gen-n", "30", "--gen-area", "600", "--gen-duration", "12", "--out", "trace.csv"],
        ["run", "--trace", "trace.csv", "--period", "2", "--algo", "centrality:direction=true",
         "--algo", "rb:direction=true", "--algo", "exact:direction=true", "--out", "run"],
        ["compare", "--trace", "trace.csv", "--period", "2",
         "--algo", "centrality", "--algo", "rb", "--algo", "exact", "--out", "cmp"],
        ["tune", "--trace", "trace.csv", "--d-max", "2", "--k-max", "3", "--out", "tuning.csv"],
    ]
    # a None entry makes every `import numpy` raise ImportError
    proc = run_python(
        "sys.modules['numpy'] = None\n"
        "from apsel.cli import main\n"
        f"print([main(args) for args in {commands!r}])",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == str([0] * len(commands))
    assert len(list((tmp_path / "run").glob("*_dir.csv"))) == 3
    assert (tmp_path / "cmp" / "summary.csv").is_file()
    assert (tmp_path / "tuning.csv").is_file()

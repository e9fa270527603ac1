"""The experiment scripts run end to end on tiny inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,rows",
    [
        ("roadway_direction_study.py", ["--seeds", "1", "--n", "20", "--duration", "20"], 2),
        ("selector_benchmark.py", ["--counts", "20", "40", "--seeds", "2"], 2),
    ],
)
def test_script_prints_its_table(script, args, rows):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 + rows
    for line in lines[1:]:
        values = [float(x) for x in line.split()[1:]]
        assert all(v >= 0.0 for v in values), line  # nan fails too

"""The experiment script runs end to end on tiny inputs and prints the CLI's figures."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import pytest

from apsel.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paper_comparison.py"


def comparison(tmp_path, *args) -> list[list[str]]:
    """The script's rows, split into fields, run from a directory that holds no src."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = (line.split() for line in proc.stdout.splitlines())
    assert header == ["n", "algorithm", "rate", "upload_bps", "reelect", "notify", "links", "edges_seen"]
    return rows


@pytest.mark.parametrize(
    "replaces,args,rows",
    [
        # the direction study: closeness with and without the heading filter
        ("roadway_direction_study.py",
         ["--seeds", "1", "--n", "20", "--duration", "20",
          "--algo", "centrality", "--algo", "centrality:direction=true"], 2),
        # the selector sweep: the optimum across two vehicle counts
        ("selector_benchmark.py", ["--n", "20", "40", "--seeds", "2", "--duration", "20", "--algo", "exact"], 2),
    ],
)
def test_script_prints_its_table(tmp_path, replaces, args, rows):
    # the table each script this one replaces printed, as rows of this one
    printed = comparison(tmp_path, *args)
    assert len(printed) == rows
    for row in printed:
        values = [float(x) for x in row[2:]]
        assert all(math.isfinite(v) and v >= 0.0 for v in values), (replaces, row)


def test_prints_one_row_per_count_and_spec(tmp_path):
    # the default specs, exact among them, on two tiny vehicle counts
    rows = comparison(tmp_path, "--n", "10", "20", "--duration", "10", "--seeds", "2")
    assert [(n, tag) for n, tag, *_ in rows] == [
        (n, tag)
        for n in ("10", "20")
        for tag in ("centrality_d1_k4", "centrality_d2_k4", "centrality_d3_k4", "rb_T256",
                    "exact_d1", "exact_d2", "centrality_d1_k4_dir")
    ]
    for row in rows:
        values = [float(x) for x in row[2:]]
        assert all(math.isfinite(v) and v >= 0.0 for v in values), row


def test_figures_are_the_compare_summary(tmp_path):
    # one seed: each row is `apsel compare`'s run mean, at the printed precision
    specs = ["centrality:d=2", "rb:slots=16", "exact", "centrality:direction=true"]
    rows = comparison(
        tmp_path, "--n", "25", "--area", "400", "--duration", "21", "--period", "5", "--seeds", "1",
        *(f"--algo={spec}" for spec in specs),
    )
    out = tmp_path / "cli"
    argv = ["compare", "--gen-n", "25", "--gen-area", "400", "--gen-duration", "21", "--seed", "0",
            "--period", "5", "--out", str(out), *(f"--algo={spec}" for spec in specs)]
    assert main(argv) == 0
    with open(out / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(rows) == len(summary) == len(specs)
    for (n, tag, rate, upload, reelect, notify, _, seen), s in zip(rows, summary):
        periods = int(s["n_periods"])
        assert (n, tag) == ("25", s["algorithm"])
        assert rate == f"{float(s['mean_aggregation_rate']):.4f}"
        assert upload == f"{float(s['mean_upload_cost_bps']):.2f}"
        assert reelect == f"{float(s['mean_reelections']):.3f}"
        assert notify == f"{int(s['total_notifications']) / periods:.3f}"
        assert seen == f"{int(s['total_edges_examined']) / periods:.1f}"

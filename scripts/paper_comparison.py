"""Centrality against rb and the optimum on generated two-way roadways.

For each vehicle count and seed 0..SEEDS-1 this generates a roadway with
generate_two_way_roadway and runs every --algo spec through the CLI's
per-period pipeline (apsel.cli.run_one_algorithm), so each row holds
the figures `apsel compare` would report, averaged over every period of
every seed. exact finishes at the default sizes; beyond them its time
is heavy-tailed (README, MAX_EXACT_VERTICES).

Usage: python scripts/paper_comparison.py
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from apsel.cli import GenParams, RunConfig, parse_algo_spec, run_one_algorithm
from apsel.metrics import summarize_run
from apsel.mobility import generate_two_way_roadway

ALGOS = [
    "centrality", "centrality:d=2", "centrality:d=3", "rb", "exact", "exact:d=2",
    "centrality:direction=true",
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[60, 120], help="vehicles per roadway")
    ap.add_argument("--area", type=float, default=800.0, help="road length in meters")
    ap.add_argument("--duration", type=float, default=60.0, help="trace length in seconds")
    ap.add_argument("--period", type=float, default=10.0, help="delivery period in seconds")
    ap.add_argument("--seeds", type=int, default=10, help="roadways per vehicle count")
    ap.add_argument("--algo", action="append", help="an `apsel run` --algo spec; repeatable")
    args = ap.parse_args(argv)
    try:
        algos = tuple(map(parse_algo_spec, args.algo or ALGOS))
        gens = [GenParams(n=n, area=args.area, duration=args.duration) for n in args.n]
        RunConfig(algos=algos, gen=gens[0], period=args.period)
        if args.seeds < 1:
            raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    except ValueError as exc:
        ap.error(str(exc))

    w = max(len("algorithm"), *(len(algo.tag) for algo in algos))
    print(
        f"{'n':>5} {'algorithm':<{w}} {'rate':>7} {'upload_bps':>10} {'reelect':>8}"
        f" {'notify':>8} {'links':>7} {'edges_seen':>10}"
    )
    for gen in gens:
        rows = {algo: [] for algo in algos}
        for seed in range(args.seeds):
            trace = generate_two_way_roadway(gen.n, gen.area, gen.duration, seed=seed)
            cfg = RunConfig(algos=algos, gen=gen, period=args.period, seed=seed)
            for algo in algos:
                rows[algo] += run_one_algorithm(trace, algo, cfg)
        for algo, rs in rows.items():
            s = summarize_run(algo.tag, rs)
            print(
                f"{gen.n:>5} {s.algorithm:<{w}} {s.mean_aggregation_rate:>7.4f}"
                f" {s.mean_upload_cost_bps:>10.2f} {s.mean_reelections:>8.3f}"
                f" {s.total_notifications / s.n_periods:>8.3f}"
                f" {sum(r.n_edges for r in rs) / s.n_periods:>7.1f}"
                f" {s.total_edges_examined / s.n_periods:>10.1f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

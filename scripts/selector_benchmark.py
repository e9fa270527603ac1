"""Aggregation-point selectors across snapshot densities.

Sweeps random road-strip snapshots at several vehicle counts, runs the
closeness selector (d=1 and d=3), the reservation frame, and, where the
graph is small enough, the exact solver, then tabulates mean
aggregation rate and the work counters.

Usage: python scripts/selector_benchmark.py --seeds 20
"""

import argparse
import random
import sys

sys.path.insert(0, "src")

from apsel.mobility import RadioParams, build_udg
from apsel.selection import (
    MAX_EXACT_VERTICES,
    centrality_select,
    exact_min_dominating_set,
    rb_select,
)


def strip_snapshot(n, length, width, seed):
    rng = random.Random(seed)
    return {v: (rng.uniform(0.0, length), rng.uniform(0.0, width)) for v in range(n)}


def sweep(counts, length, width, radius, seeds):
    radio = RadioParams(range_r=radius)
    table = []
    for n in counts:
        rates = {"centrality_d1": [], "centrality_d3": [], "rb": [], "exact_d1": []}
        edges_examined = []
        degree = []
        for seed in range(seeds):
            g = build_udg(strip_snapshot(n, length, width, seed), radio)
            degree.append(2 * g.n_edges / g.n_vertices)
            c1 = centrality_select(g, 1, 4)
            rates["centrality_d1"].append(1 - len(c1.aggregation_points) / n)
            edges_examined.append(c1.edges_examined)
            c3 = centrality_select(g, 3, 4)
            rates["centrality_d3"].append(1 - len(c3.aggregation_points) / n)
            rb = rb_select(g, 256, seed)
            rates["rb"].append(1 - len(rb.aggregation_points) / n)
            if n <= MAX_EXACT_VERTICES:
                ex = exact_min_dominating_set(g, 1)
                rates["exact_d1"].append(1 - len(ex.aggregation_points) / n)
        table.append((n, degree, rates, edges_examined))
    return table


def report(table):
    mean = lambda xs: sum(xs) / len(xs) if xs else float("nan")
    header = f"{'n':>5} {'deg':>6} {'cent_d1':>8} {'cent_d3':>8} {'rb':>8} {'exact_d1':>9} {'edges_seen':>11}"
    print(header)
    for n, degree, rates, edges_examined in table:
        print(
            f"{n:>5} {mean(degree):>6.2f}"
            f" {mean(rates['centrality_d1']):>8.4f}"
            f" {mean(rates['centrality_d3']):>8.4f}"
            f" {mean(rates['rb']):>8.4f}"
            f" {mean(rates['exact_d1']):>9.4f}"
            f" {mean(edges_examined):>11.1f}"
        )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--counts", type=int, nargs="+", default=[100, 200, 300, 500])
    ap.add_argument("--length", type=float, default=5000.0, help="strip length in meters")
    ap.add_argument("--width", type=float, default=30.0, help="strip width in meters")
    ap.add_argument("--radius", type=float, default=100.0, help="radio range in meters")
    ap.add_argument("--seeds", type=int, default=20, help="snapshots per vehicle count")
    args = ap.parse_args(argv)

    report(sweep(args.counts, args.length, args.width, args.radius, args.seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())

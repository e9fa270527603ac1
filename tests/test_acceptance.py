"""End-to-end acceptance gate.

One test per criterion; each prints a single labeled PASS line with the
achieved numbers (visible under ``pytest tests/test_acceptance.py -v -s``).
Everything here is seeded and deterministic.
"""

import itertools
import random
import time

from apsel.cli import main
from apsel.graph import all_k_closeness
from apsel.metrics import read_period_metrics_csv, upload_cost
from apsel.mobility import (
    RadioParams,
    build_direction_constrained_udg,
    build_udg,
    generate_two_way_roadway,
)
from apsel.selection import (
    centrality_select,
    exact_min_dominating_set,
    rb_select,
    rb_select_with_slots,
    verify_domination,
)
from apsel.tuner import TunerConfig, nelder_mead, tune_integer_objective
from helpers import (
    brute_force_min_dominating_set,
    connected_gnp_graph,
    full_closeness_from_matrix,
    geometric_snapshot,
    gnp_graph,
    hop_matrix,
    is_independent_set,
)


def oracle_instances():
    """210 small random graphs paired with domination radii."""
    for seed in range(35):
        n = 4 + seed % 9  # 4..12 vertices
        for p in (0.2, 0.5):
            g = gnp_graph(n, p, seed)
            for d in (1, 2, 3):
                yield g, d, seed


def strip_snapshot(n, length, width, seed):
    """Uniform positions on a long thin rectangle, a road-segment geometry."""
    rng = random.Random(seed)
    return {v: (rng.uniform(0.0, length), rng.uniform(0.0, width)) for v in range(n)}


def test_criterion_01_exact_solver_matches_brute_force_oracle():
    t0 = time.monotonic()
    checked = 0
    for g, d, _ in oracle_instances():
        exact = exact_min_dominating_set(g, d)
        witness = brute_force_min_dominating_set(g, d)
        assert len(exact.aggregation_points) == len(witness), (
            f"optimum mismatch on n={g.n_vertices} d={d}: "
            f"{len(exact.aggregation_points)} vs {len(witness)}"
        )
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 200
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: {checked}/{checked} optima matched in {elapsed:.1f}s")


def test_criterion_02_full_coverage_and_isolated_vehicles_selected():
    checks = 0
    for seed in range(75):
        graphs = [
            gnp_graph(6 + seed % 20, 0.12, seed),
            build_udg(geometric_snapshot(8 + seed % 25, 1000.0, seed), RadioParams()),
        ]
        for g in graphs:
            isolated = {v for v in g.vertices if g.degree(v) == 0}
            selections = [
                (centrality_select(g, d, 4).aggregation_points, d) for d in (1, 2, 3)
            ]
            selections += [
                (exact_min_dominating_set(g, d).aggregation_points, d) for d in (1, 2, 3)
            ]
            selections.append((rb_select(g, 16, seed).aggregation_points, 1))
            for points, d in selections:
                assert verify_domination(g, points, d)
                assert isolated <= points, f"isolated vehicles {isolated - points} not selected"
                checks += 1
    assert checks >= 1000
    print(f"\n[criterion 2] PASS: {checks} selections, 100% coverage, isolated always in S")


def test_criterion_03_heuristics_never_beat_exact_and_exact_monotone_in_d():
    compared = 0
    for seed in range(35):
        n = 4 + seed % 9
        for p in (0.2, 0.5):
            g = gnp_graph(n, p, seed)
            sizes = {}
            for d in (1, 2, 3):
                exact = len(exact_min_dominating_set(g, d).aggregation_points)
                sizes[d] = exact
                assert len(centrality_select(g, d, 4).aggregation_points) >= exact
                if d == 1:
                    assert len(rb_select(g, 256, seed).aggregation_points) >= exact
                compared += 1
            assert sizes[1] >= sizes[2] >= sizes[3], f"exact size not monotone: {sizes}"
    print(f"\n[criterion 3] PASS: heuristic >= exact on {compared} instances, exact monotone in d")


def test_criterion_04_truncated_closeness_equals_floyd_warshall_closeness():
    worst = 0.0
    for seed in range(100):
        n = 5 + seed % 46  # 5..50 vertices
        g = connected_gnp_graph(n, 0.15, seed)
        verts, mat = hop_matrix(g)
        diameter = int(mat.max())
        expected = full_closeness_from_matrix(verts, mat)
        values, _ = all_k_closeness(g, max(diameter, 1))
        for v in verts:
            worst = max(worst, abs(values[v] - expected[v]))
        assert all(abs(values[v] - expected[v]) <= 1e-12 for v in verts)
    print(f"\n[criterion 4] PASS: 100 connected graphs, max |error| = {worst:.2e} <= 1e-12")


def test_criterion_05_centrality_beats_rb_and_multi_hop_beats_single_hop():
    radio = RadioParams(range_r=100.0)
    rate_c1, rate_c3, rate_rb = [], [], []
    for seed in range(30):
        g = build_udg(strip_snapshot(300, 5000.0, 30.0, seed), radio)
        degree = 2 * g.n_edges / g.n_vertices
        assert degree >= 8.0, f"snapshot {seed} mean degree {degree:.2f} < 8"
        n = g.n_vertices
        c1 = len(centrality_select(g, 1, 4).aggregation_points)
        c3 = len(centrality_select(g, 3, 4).aggregation_points)
        rb = len(rb_select(g, 256, seed).aggregation_points)
        rate_c1.append(1 - c1 / n)
        rate_c3.append(1 - c3 / n)
        rate_rb.append(1 - rb / n)
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(rate_c1) >= mean(rate_rb), f"{mean(rate_c1):.4f} < {mean(rate_rb):.4f}"
    assert mean(rate_c3) > mean(rate_c1), f"{mean(rate_c3):.4f} <= {mean(rate_c1):.4f}"
    print(
        f"\n[criterion 5] PASS: mean rates centrality_d1={mean(rate_c1):.4f}"
        f" >= rb={mean(rate_rb):.4f}; centrality_d3={mean(rate_c3):.4f} > d1"
    )


def test_criterion_06_direction_filter_splits_lanes_and_stabilizes_clusters(tmp_path):
    # (a) all in-range opposing-lane links removed, same-lane links kept
    trace = generate_two_way_roadway(60, 800.0, 30.0, seed=1)
    cross_removed = cross_total = 0
    for t in (5.0, 12.0, 20.0):
        cur = trace.positions_at(t)
        prev = trace.positions_at(t - 1.0)
        base = build_udg(cur, RadioParams())
        constrained, removed = build_direction_constrained_udg(cur, prev, RadioParams())
        cross = [(i, j) for i, j in base.edges() if i % 2 != j % 2]
        same = [(i, j) for i, j in base.edges() if i % 2 == j % 2]
        assert all(not constrained.has_edge(i, j) for i, j in cross)
        assert all(constrained.has_edge(i, j) for i, j in same)
        assert removed == len(cross)
        cross_removed += removed
        cross_total += len(cross)
    assert cross_total > 0

    # (b) direction-constrained clustering re-elects points at least as often
    from apsel.cli import AlgoSpec, RunConfig, run_algorithms

    reelections = {True: [], False: []}
    for seed in (0, 1, 2):
        roadway = generate_two_way_roadway(50, 800.0, 60.0, seed=seed)
        for direction in (False, True):
            spec = AlgoSpec("centrality", d=1, k=4, direction=direction)
            cfg = RunConfig(algos=(spec,), period=10.0, out_dir=str(tmp_path), seed=seed)
            rows = run_algorithms(roadway, cfg)[spec]
            reelections[direction] += [r.n_reelections for r in rows]
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(reelections[True]) >= mean(reelections[False])
    print(
        f"\n[criterion 6] PASS: {cross_removed}/{cross_total} opposing-lane edges removed;"
        f" reelections {mean(reelections[True]):.2f} (direction)"
        f" >= {mean(reelections[False]):.2f} (plain)"
    )


def test_criterion_07_upload_cost_identity_and_peak_reference(tmp_path):
    out, trace = tmp_path / "res", str(tmp_path / "trace.csv")
    assert main(["gen-trace", "--gen-n", "40", "--gen-duration", "31", "--seed", "9", "--out", trace]) == 0
    rc = main(
        ["run", "--trace", trace, "--seed", "9",
         "--algo", "centrality", "--algo", "rb", "--out", str(out)]
    )
    assert rc == 0
    rows_checked = 0
    for name in ("centrality_d1_k4", "rb_T256"):
        for row in read_period_metrics_csv(out / f"{name}.csv"):
            assert row.upload_cost_bps == row.n_aps * 120 / 10
            rows_checked += 1
    assert rows_checked > 0
    peak_kbps = upload_cost(13_958) / 1000.0
    assert abs(peak_kbps - 167.5) / 167.5 < 1e-3
    print(
        f"\n[criterion 7] PASS: identity exact on {rows_checked} rows;"
        f" 13958 vehicles -> {peak_kbps:.2f} kB/s (ref 167.5, rel err"
        f" {abs(peak_kbps - 167.5) / 167.5:.2e})"
    )


def test_criterion_08_collision_free_rb_yields_maximal_independent_set():
    for seed in range(100):
        n = 5 + seed % 36
        g = gnp_graph(n, 0.2, seed)
        order = list(g.vertices)
        random.Random(seed).shuffle(order)
        slots = {v: i for i, v in enumerate(order)}  # globally distinct draws
        points = rb_select_with_slots(g, slots, n).aggregation_points
        assert is_independent_set(g, points)
        assert verify_domination(g, points, 1)  # dominating + independent = maximal
    print("\n[criterion 8] PASS: 100/100 collision-free runs gave maximal independent sets")


def test_criterion_09_simplex_search_sanity():
    res = nelder_mead(lambda x: (x[0] - 1) ** 2 + (x[1] - 2) ** 2, [(0, 0), (1, 0), (0, 1)])
    err = max(abs(res.point[0] - 1.0), abs(res.point[1] - 2.0))
    assert err < 1e-4

    stub = lambda d, k: -((d - 3) ** 2 + (k - 4) ** 2)
    tuned = tune_integer_objective(stub, TunerConfig())
    box = itertools.product(range(1, 11), range(1, 11))
    oracle = max(box, key=lambda p: (stub(*p), -p[0], -p[1]))
    assert (tuned.d, tuned.k) == oracle == (3, 4)
    print(
        f"\n[criterion 9] PASS: quadratic optimum within {err:.1e};"
        f" integer tuner returned {oracle}, matching grid search"
    )


def test_criterion_10_identical_config_and_seed_reproduce_csv_bytes(tmp_path):
    dirs, trace = (tmp_path / "a", tmp_path / "b"), str(tmp_path / "trace.csv")
    assert main(["gen-trace", "--gen-n", "30", "--gen-duration", "41", "--seed", "3", "--out", trace]) == 0
    for out in dirs:
        rc = main(
            ["compare", "--trace", trace, "--seed", "3",
             "--algo", "centrality:d=2,k=4,direction=true", "--algo", "rb:slots=64,direction=true",
             "--algo", "exact:direction=true", "--out", str(out)]
        )
        assert rc == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    compared = 0
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        compared += 1
    assert compared >= 4  # three algorithms plus the merged summary
    print(f"\n[criterion 10] PASS: {compared} output files byte-identical across reruns")

"""The fast snapshot kernels against the straightforward ones they replaced.

Each kernel (grid unit-disk builder, bit-parallel closeness, sort-once
greedy pick, slot-bucketed reservation frame, bitset exact branch and
bound) must give exactly what its oracle in ``helpers`` gives, counters
included.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from apsel.graph import SnapshotGraph, all_k_closeness
from apsel.mobility import RadioParams, build_direction_constrained_udg, build_udg
from apsel.selection import (
    _closed_neighborhoods,
    centrality_select,
    exact_min_dominating_set,
    rb_select_with_slots,
)
from helpers import (
    _greedy_cover,
    adjacency,
    all_k_closeness_oracle,
    centrality_select_oracle,
    cycle_graph,
    direction_angle,
    displacements_at,
    exact_min_dominating_set_oracle,
    geometric_snapshot,
    rb_select_with_slots_oracle,
    star_graph,
    two_lane_strip,
    udg_oracle,
)

ORIGINS = [0.0, -3_000.0, 1e9, -1e9]


@st.composite
def snapshots(draw):
    """Snapshots mixing uniform scatter with exact-range placements.

    Lattice points sit exactly r apart along the axes, diagonal points
    exactly r apart as 60-80-100 triangles, and duplicates put several
    vehicles on one spot.
    """
    r = draw(st.sampled_from([1.0, 100.0, 250.0]))
    ox, oy = draw(st.sampled_from(ORIGINS)), draw(st.sampled_from(ORIGINS))
    side = r * draw(st.sampled_from([0.3, 3.0, 20.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    points: list[tuple[float, float]] = []
    for kind in draw(st.lists(st.sampled_from("uuladc"), max_size=60)):
        if kind == "u":
            points.append((ox + rng.uniform(-side, side), oy + rng.uniform(-side, side)))
        elif kind == "l":
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            points.append((ox + a * r, oy + b * r))
        elif kind == "a":
            a, b = rng.randint(-4, 4) * rng.choice([-1, 1]), rng.randint(-4, 4)
            dx, dy = rng.choice([(0.6, 0.8), (0.8, 0.6)])
            points.append((ox + (a * dx + b) * r, oy + (a * dy - b) * r))
        elif kind == "d" and points:
            points.append(rng.choice(points))
        else:
            points.append((ox + rng.uniform(0, r / 2), oy + rng.uniform(0, r / 2)))
    ids = rng.sample(range(10 * len(points) + 1), len(points))
    return dict(zip(ids, points)), RadioParams(range_r=r)


@st.composite
def graphs(draw):
    """Small graphs with arbitrary ids: random, geometric, or tie-heavy."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["gnp", "geometric", "cycles", "empty"]))
    if kind == "gnp":
        p = rng.choice([0.05, 0.15, 0.4])
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    elif kind == "geometric":
        snap = geometric_snapshot(n, 500.0, rng.randrange(10**6))
        edges = list(udg_oracle(snap).edges())
    elif kind == "cycles":
        # equal-length cycles: every vertex ties with every other one
        size = rng.choice([3, 4, 5, 6])
        n -= n % size
        edges = [(c + i, c + (i + 1) % size) for c in range(0, n, size) for i in range(size)]
    else:
        edges = []
    ids = rng.sample(range(1000), n)
    return SnapshotGraph(ids, [(ids[i], ids[j]) for i, j in edges])


class TestGridUdg:
    @given(case=snapshots())
    def test_matches_all_pairs_oracle(self, case):
        snap, radio = case
        g, ref = build_udg(snap, radio), udg_oracle(snap, radio)
        assert adjacency(g) == adjacency(ref)
        assert g.n_edges == ref.n_edges

    @pytest.mark.parametrize("origin", ORIGINS)
    def test_exact_range_on_axis_and_diagonal(self, origin):
        snap = {
            0: (origin, origin),
            1: (origin + 100.0, origin),
            2: (origin + 100.0, origin + 100.0),
            3: (origin + 160.0, origin + 180.0),
            4: (origin + 260.0, origin + 180.0001),
        }
        g = build_udg(snap, RadioParams(range_r=100.0))
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
        assert adjacency(g) == adjacency(udg_oracle(snap))

    @pytest.mark.parametrize("origin", ORIGINS)
    def test_ring_at_exact_range_in_every_direction(self, origin):
        ring = [(100.0, 0.0), (60.0, 80.0), (80.0, 60.0)]
        ring += [(-y, x) for x, y in ring]
        ring += [(-x, -y) for x, y in ring]
        snap = {0: (origin, origin)}
        snap.update({v: (origin + x, origin + y) for v, (x, y) in enumerate(ring, start=1)})
        g = build_udg(snap)
        assert g.neighbors(0) == tuple(range(1, 13))
        assert adjacency(g) == adjacency(udg_oracle(snap))

    def test_coincident_vehicles_and_one_cell(self):
        snap = {v: (7.0, -7.0) for v in range(5)}
        snap.update({10 + v: (7.0 + v, -7.0 - v) for v in range(5)})
        g = build_udg(snap)
        assert g.n_edges == 10 * 9 // 2
        assert adjacency(g) == adjacency(udg_oracle(snap))

    def test_vehicles_1e11_m_apart(self):
        snap = {0: (0.0, 0.0), 1: (50.0, 0.0), 2: (1e11, 0.0), 3: (1e11, 1e11), 4: (1e11, 1e11 - 99.0)}
        g = build_udg(snap)
        assert sorted(g.edges()) == [(0, 1), (3, 4)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected(self, bad):
        with pytest.raises(ValueError, match="vehicle 3"):
            build_udg({1: (0.0, 0.0), 3: (bad, 5.0)})
        with pytest.raises(ValueError, match="non-finite"):
            build_udg({3: (0.0, bad)})

    def test_more_cells_than_a_float_counts_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            build_udg({0: (0.0, 0.0), 1: (1e300, 0.0)}, RadioParams(range_r=1.0))

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            build_udg({-1: (0.0, 0.0), 2: (1.0, 0.0)})

    @given(case=snapshots(), seed=st.integers(0, 2**32 - 1))
    def test_direction_filter_matches_oracle_graph(self, case, seed):
        snap, radio = case
        rng = random.Random(seed)
        prev = {
            v: (x - rng.choice([-1.0, 0.0, 1.0]), y - rng.choice([-1.0, 0.0, 1.0]))
            for v, (x, y) in snap.items()
            if rng.random() < 0.8
        }
        moves = displacements_at(snap, prev)

        def same_heading(i, j):
            wi, wj = moves.get(i), moves.get(j)
            if wi is None or wj is None or wi.is_neutral or wj.is_neutral:
                return True
            return direction_angle(wi, wj) <= 45.0

        base = udg_oracle(snap, radio)
        ref = SnapshotGraph(snap, [e for e in base.edges() if same_heading(*e)])
        g, removed = build_direction_constrained_udg(snap, prev, radio)
        assert adjacency(g) == adjacency(ref)
        assert (g.n_edges, removed) == (ref.n_edges, base.n_edges - ref.n_edges)


class TestBitsetCloseness:
    @given(g=graphs(), k=st.integers(1, 6))
    def test_values_and_edges_examined_match_bfs(self, g, k):
        assert all_k_closeness(g, k) == all_k_closeness_oracle(g, k)


class TestSortOnceGreedy:
    @given(g=graphs(), d=st.integers(1, 3), k=st.integers(1, 4))
    def test_matches_max_scan(self, g, d, k):
        assert centrality_select(g, d, k) == centrality_select_oracle(g, d, k)

    def test_equal_scores_resolve_to_lowest_id(self):
        g = SnapshotGraph([9, 4, 7, 2, 5, 8], [(9, 4), (4, 7), (7, 2), (2, 5), (5, 8), (8, 9)])
        assert len(set(all_k_closeness(g, 2)[0].values())) == 1
        # ranking by id: 2 covers 5 and 7, 4 covers 9, and 8 is left
        assert centrality_select(g, 1, 2).aggregation_points == {2, 4, 8}
        assert centrality_select(g, 1, 2) == centrality_select_oracle(g, 1, 2)
        assert centrality_select(cycle_graph(6), 1, 4).aggregation_points == {0, 2, 4}


class TestBucketedReservationFrame:
    @given(g=graphs(), frame=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_forced_slots_match_per_tick_frame(self, g, frame, seed):
        rng = random.Random(seed)
        slots = {v: rng.randrange(frame) for v in g.vertices}
        # result equality covers points, assignment and slots_simulated
        assert rb_select_with_slots(g, slots, frame) == rb_select_with_slots_oracle(g, slots, frame)

    def test_collision_keeps_listener_in_race(self):
        # 0 and 2 collide at vehicle 1, which then transmits itself
        g = SnapshotGraph(range(3), [(0, 1), (1, 2)])
        res = rb_select_with_slots(g, {0: 0, 1: 2, 2: 0}, 4)
        assert res.aggregation_points == {0, 1, 2}
        assert res.slots_simulated == 3
        assert res == rb_select_with_slots_oracle(g, {0: 0, 1: 2, 2: 0}, 4)


@st.composite
def exact_cases(draw):
    """Unit-disk snapshots for the exact solver, relabelled with random
    ids: two-lane strips as sparse as the benchmark's (often disconnected)
    or denser, and uniform squares from one cluster to scattered."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 36))
    if draw(st.booleans()):
        snap = two_lane_strip(n, rng.choice([600.0, 1500.0, 3000.0]), rng.randrange(10**6))
    else:
        snap = geometric_snapshot(n, rng.choice([150.0, 400.0, 1000.0]), rng.randrange(10**6))
    ids = rng.sample(range(1000), n)
    return udg_oracle({ids[v]: xy for v, xy in snap.items()})


def greedy_is_optimal(g: SnapshotGraph, d: int, optimum: frozenset[int]) -> bool:
    closed, _ = _closed_neighborhoods(g, d)
    return len(_greedy_cover(list(g.vertices), closed)) == len(optimum)


class TestBitsetExact:
    @given(g=exact_cases(), d=st.integers(1, 3))
    @example(g=SnapshotGraph([]), d=1)
    @example(g=SnapshotGraph([7]), d=2)
    @example(g=SnapshotGraph([5, 3, 9, 1], [(5, 3), (9, 1)]), d=1)
    def test_matches_set_based_search(self, g, d):
        # points, assignment, edges_examined and the node count all agree
        assert exact_min_dominating_set(g, d) == exact_min_dominating_set_oracle(g, d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_benchmark_strips_include_covers_greedy_misses(self, d):
        """The witness is the greedy cover only when that cover is optimal;
        strips where it is not exercise the search itself."""
        misses = 0
        for seed in range(60):
            g = udg_oracle(two_lane_strip(36, 3000.0, seed))
            res = exact_min_dominating_set(g, d)
            assert res == exact_min_dominating_set_oracle(g, d)
            misses += not greedy_is_optimal(g, d, res.aggregation_points)
        assert misses >= 3

    def test_search_nodes(self):
        # the star's centre covers everything and the root packs one ball
        assert exact_min_dominating_set(star_graph(5), 1).search_nodes == 1
        # greedy covers the 7-cycle with 3 points but the root packs only
        # the balls of 0 and 3, so the search has to branch to prove 3
        res = exact_min_dominating_set(cycle_graph(7), 1)
        assert len(res.aggregation_points) == 3
        assert res.search_nodes > 1
        assert res == exact_min_dominating_set_oracle(cycle_graph(7), 1)
        assert centrality_select(cycle_graph(7)).search_nodes == 0


def test_20k_vehicle_snapshot_builds_in_bounded_memory():
    """The all-pairs builder needs about 2.8 GB at 10k vehicles; the grid
    must build 20k (mean degree about 10) well inside 200 MB."""
    n, r, mean_degree = 20_000, 100.0, 10.0
    side = math.sqrt(n * math.pi * r * r / mean_degree)
    snap = geometric_snapshot(n, side, seed=20)
    tracemalloc.start()
    try:
        g = build_udg(snap, RadioParams(range_r=r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20
    assert 9.0 < 2 * g.n_edges / n < 11.0
    pos = np.array([snap[v] for v in range(n)])
    for v in random.Random(0).sample(range(n), 200):
        diff = pos - pos[v]
        assert g.degree(v) == int(((diff * diff).sum(axis=1) <= r * r).sum()) - 1

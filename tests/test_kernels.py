"""The fast snapshot kernels against the straightforward ones they replaced.

Each kernel (multi-source nearest-point assignment, row-strip unit-disk
builder, bit-parallel closeness, sort-once greedy pick, slot-bucketed
reservation frame, bitset exact branch and bound) must give exactly what
its oracle in ``helpers`` gives, counters included. The one exception
is the exact search's node count on a disconnected graph, which the
bitset solver searches one component at a time and the oracle in one
piece. The strategies draw both arbitrary ids and the ids 0..n-1, and the
position-numbered adjacency, with every id view read from it, is checked
against the id edges a graph was built from. The closeness tests run twice:
as the size threshold leaves them, and with the breadth-first level
kernel forced on for every graph.
"""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import apsel.graph
import apsel.mobility
from apsel.graph import (
    SnapshotGraph,
    UnknownVehicleError,
    all_k_closeness,
    breadth_first_order,
    level_rounds,
    reach_rounds,
)
from apsel.mobility import (
    RadioParams,
    build_direction_constrained_udg,
    build_udg,
    generate_two_way_roadway,
)
from apsel.selection import (
    assign_to_aggregation_points,
    centrality_select,
    exact_min_dominating_set,
    rb_select_with_slots,
)
from apsel.tuner import TunerConfig, tune_parameters
from helpers import (
    _closed_neighborhoods,
    _greedy_cover,
    adjacency,
    all_k_closeness_oracle,
    assign_to_aggregation_points_oracle,
    bfs_distances,
    breadth_first_order_oracle,
    centrality_select_oracle,
    cycle_graph,
    direction_filtered_edges,
    exact_min_dominating_set_oracle,
    geometric_snapshot,
    path_graph,
    rb_select_with_slots_oracle,
    star_graph,
    two_lane_strip,
    udg_edges_oracle,
    udg_oracle,
)

ORIGINS = [0.0, -3_000.0, 1e9, -1e9]
# at 1e15 one ulp (0.125) exceeds the strips' margin over a 1 m range (0.01 m)
FAR_ORIGIN, FAR_RANGE = 1e15, 1.0


def assert_adjacency_by_position(g: SnapshotGraph, ids, edges) -> None:
    """``g`` against the ids and id edges it was built from: its
    position adjacency, and every id view read from it."""
    ids = sorted(set(ids))
    position = {v: i for i, v in enumerate(ids)}
    pairs = {(u, v) for e in edges for u, v in (e, e[::-1])}
    rows: list[list[int]] = [[] for _ in ids]
    for u, v in sorted(pairs):
        rows[position[u]].append(position[v])
    assert g.vertices == tuple(ids)
    assert g.adjacency == tuple(map(tuple, rows))
    assert g.n_edges == len(pairs) // 2
    assert list(g.edges()) == sorted((u, v) for u, v in pairs if u < v)
    for v, row in zip(ids, rows):
        assert v in g
        assert g.neighbors(v) == tuple(ids[j] for j in row)
        assert g.degree(v) == len(row)
    assert {(u, v) for u in ids for v in ids if g.has_edge(u, v)} == pairs
    gaps = [v for v in range(len(ids) + 1) if v not in position]
    for absent in (-1, gaps[0], max(ids, default=0) + 1):
        assert absent not in g
        assert not any(g.has_edge(absent, v) or g.has_edge(v, absent) for v in ids)
        with pytest.raises(UnknownVehicleError):
            g.neighbors(absent)
        with pytest.raises(UnknownVehicleError):
            g.degree(absent)


@st.composite
def snapshots(draw):
    """Snapshots mixing uniform scatter with exact-range placements.

    Lattice points sit exactly r apart along the axes, diagonal points
    exactly r apart as 60-80-100 triangles, and duplicates put several
    vehicles on one spot.
    """
    r = draw(st.sampled_from([1.0, 100.0, 250.0]))
    origins = ORIGINS + [FAR_ORIGIN]
    ox, oy = draw(st.sampled_from(origins)), draw(st.sampled_from(origins))
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
    spread = 10 * len(points) + 1 if draw(st.booleans()) else len(points)
    ids = rng.sample(range(spread), len(points))
    return dict(zip(ids, points)), RadioParams(range_r=r)


@st.composite
def graph_parts(draw):
    """The ids and id edges of a small graph with arbitrary ids of either
    sign or ids 0..n-1: random, geometric, or tie-heavy."""
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
    ids = rng.sample(range(-1000, 1000) if draw(st.booleans()) else range(n), n)
    return ids, [(ids[i], ids[j]) for i, j in edges]


def graphs():
    """Graphs built from ``graph_parts``."""
    return graph_parts().map(lambda parts: SnapshotGraph(*parts))


@st.composite
def graphs_with_points(draw):
    """A graph from graphs() and any subset of its vertices as points,
    which need not dominate it."""
    g = draw(graphs())
    points = draw(st.frozensets(st.sampled_from(g.vertices))) if g.n_vertices else frozenset()
    return g, points


@st.composite
def disjoint_unions(draw):
    """Disjoint unions of 2-4 random graphs, at most 20 vertices in all,
    with ids shuffled so that the parts interleave in id order."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4).filter(lambda s: sum(s) <= 20))
    edges, start = [], 0
    for size in sizes:
        p = rng.choice([0.2, 0.4, 0.7])
        edges += [
            (start + i, start + j) for i in range(size) for j in range(i + 1, size) if rng.random() < p
        ]
        start += size
    ids = rng.sample(range(100), start)
    return SnapshotGraph(ids, [(ids[i], ids[j]) for i, j in edges])


class TestNearestPointAssignment:
    @given(case=graphs_with_points(), d=st.integers(1, 3))
    # 4 ties at two hops between 1 and 8, and {1, 8} iterates as [8, 1]:
    # the answer is {2: 1, 3: 8, 4: 1}
    @example(case=(SnapshotGraph(range(1, 9), [(1, 2), (8, 3), (2, 4), (3, 4)]), frozenset({1, 8})), d=2)
    # 5 ties at two hops between 1 (through 9) and 2 (through 3); the
    # second round must visit 9 before 3, in label order, not id order
    @example(case=(SnapshotGraph([1, 2, 3, 5, 9], [(1, 9), (2, 3), (9, 5), (3, 5)]), frozenset({1, 2})), d=2)
    def test_matches_per_point_search(self, case, d):
        g, points = case
        assert assign_to_aggregation_points(g, points, d) == assign_to_aggregation_points_oracle(
            g, points, d
        )


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

    def test_exact_range_where_an_ulp_exceeds_the_margin(self):
        # coordinates near 1e15 are multiples of 0.125, so no diagonal pair
        # lies exactly 1 m apart; axis pairs do, and 1.125 m is one step past
        o, r = FAR_ORIGIN, FAR_RANGE
        offsets = [(0.0, 0.0), (1.0, 0.0), (2.125, 0.0), (1.0, 1.0), (1.625, 1.75), (0.0, 2.125)]
        assert math.ulp(o) > 0.01 * r
        assert all((o + dx) - o == dx and (o + dy) - o == dy for dx, dy in offsets)
        snap = {v: (o + dx, o + dy) for v, (dx, dy) in enumerate(offsets)}
        g = build_udg(snap, RadioParams(range_r=r))
        assert sorted(g.edges()) == [(0, 1), (1, 3), (3, 4)]
        assert adjacency(g) == adjacency(udg_oracle(snap, RadioParams(range_r=r)))

    @pytest.mark.parametrize("origin", ORIGINS)
    def test_exact_range_across_a_strip_boundary(self, origin):
        # vehicle 0 sets the lowest y, so strip k starts at origin + k * w;
        # each pair sits exactly r apart across one such boundary, on the
        # axis or as a 60-80-100 triangle leaning either way
        r = 100.0
        w = apsel.mobility._STRIP_SCALE * r
        assert w == 101.0
        snap = {0: (origin, origin)}
        pairs = []
        for k, (dx, dy) in enumerate([(0, 100), (60, 80), (-60, 80), (80, 60), (-80, 60)], start=1):
            x, y = origin + 1000.0 * k, origin + w * k
            a, b = 2 * k - 1, 2 * k
            snap[a] = (x, y - dy / 2)
            snap[b] = (x + dx, y + dy / 2)
            pairs.append((a, b))
        # and one pair just past the range
        snap[11] = (origin + 7000.0, origin + w - 50.0)
        snap[12] = (origin + 7000.0, origin + w + 50.0001)
        g = build_udg(snap, RadioParams(range_r=r))
        assert sorted(g.edges()) == pairs
        assert adjacency(g) == adjacency(udg_oracle(snap, RadioParams(range_r=r)))

    def test_pair_whose_difference_rounds_to_the_range(self):
        # -2**-53 - 1.0 rounds to -1.0, so the test puts 0-1 in range though
        # 1.0 lies past -2**-53 + 1.0; a scan must stop on the rounded
        # difference, not on a rounded sum. 2-3 does the same across the
        # boundary between the first two strips, at y = 1.01.
        w = apsel.mobility._STRIP_SCALE * FAR_RANGE
        assert 1.0 > -(2**-53) + FAR_RANGE
        snap = {
            0: (-(2**-53), 0.0),
            1: (1.0, 0.0),
            2: (-(2**-53), math.nextafter(w, 0.0)),
            3: (1.0, w),
        }
        g = build_udg(snap, RadioParams(range_r=FAR_RANGE))
        assert sorted(g.edges()) == [(0, 1), (2, 3)]
        assert adjacency(g) == adjacency(udg_oracle(snap, RadioParams(range_r=FAR_RANGE)))

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

    def test_negative_id_accepted(self):
        snap = geometric_snapshot(60, 500.0, seed=3)
        shifted = {v - 30: xy for v, xy in snap.items()}
        g = build_udg(shifted)
        assert g.vertices[0] == -30
        assert g.adjacency == build_udg(snap).adjacency
        assert adjacency(g) == adjacency(udg_oracle(shifted))

    def test_integer_and_numpy_scalar_coordinates(self):
        snap = geometric_snapshot(300, 800.0, seed=7)
        ref = adjacency(build_udg(snap))
        as_int = {v: (round(x), round(y)) for v, (x, y) in snap.items()}
        assert adjacency(build_udg(as_int)) == adjacency(udg_oracle(as_int))
        as_numpy = {v: (np.float64(x), np.float32(y)) for v, (x, y) in snap.items()}
        assert adjacency(build_udg(as_numpy)) == adjacency(udg_oracle(as_numpy))
        assert adjacency(build_udg({v: tuple(map(np.float64, xy)) for v, xy in snap.items()})) == ref

    def test_neighbours_are_the_snapshots_own_ids(self):
        snap = {10**20 + v: (float(v), 0.0) for v in range(8)}  # ints that are not cached
        g = build_udg(snap)
        own = {id(v) for v in snap}
        assert all(id(u) in own for v in g.vertices for u in g.neighbors(v))
        assert adjacency(g) == adjacency(udg_oracle(snap))

    @given(case=snapshots(), seed=st.integers(0, 2**32 - 1))
    def test_direction_filter_matches_oracle_graph(self, case, seed):
        snap, radio = case
        rng = random.Random(seed)
        prev = {
            v: (x - rng.choice([-1.0, 0.0, 1.0]), y - rng.choice([-1.0, 0.0, 1.0]))
            for v, (x, y) in snap.items()
            if rng.random() < 0.8
        }
        kept = direction_filtered_edges(snap, prev, radio)
        g, removed = build_direction_constrained_udg(snap, prev, radio)
        assert_adjacency_by_position(g, snap, kept)
        assert removed == len(udg_edges_oracle(snap, radio)) - len(kept)


class TestPositionAdjacency:
    @given(parts=graph_parts(), repeat=st.booleans())
    def test_constructor(self, parts, repeat):
        ids, edges = parts
        # every edge again, reversed, must collapse onto the first
        given_edges = edges + [(j, i) for i, j in edges] if repeat else edges
        assert_adjacency_by_position(SnapshotGraph(ids, given_edges), ids, edges)

    @given(case=snapshots())
    def test_builder(self, case):
        snap, radio = case
        assert_adjacency_by_position(build_udg(snap, radio), snap, udg_edges_oracle(snap, radio))

    @given(case=snapshots(), seed=st.integers(0, 2**32 - 1))
    def test_direction_filter(self, case, seed):
        snap, radio = case
        rng = random.Random(seed)
        prev = {v: (x - rng.choice([-1.0, 1.0]), y) for v, (x, y) in snap.items() if rng.random() < 0.8}
        g = build_direction_constrained_udg(snap, prev, radio)[0]
        assert_adjacency_by_position(g, snap, direction_filtered_edges(snap, prev, radio))


def spy_on_closeness_kernels(monkeypatch) -> list:
    """Record each rounds kernel that ``all_k_closeness`` runs: its name
    and the adjacency it is given."""
    calls = []

    def spy(name):
        kernel = getattr(apsel.graph, name)

        def counted(adjacency, k):
            calls.append((name, adjacency))
            return kernel(adjacency, k)

        return counted

    for name in ("reach_rounds", "level_rounds"):
        monkeypatch.setattr(apsel.graph, name, spy(name))
    return calls


class TestBitsetCloseness:
    kernel = "reach_rounds"

    @given(g=graphs(), k=st.integers(1, 6))
    def test_values_and_edges_examined_match_bfs(self, g, k):
        assert all_k_closeness(g, k) == all_k_closeness_oracle(g, k)

    @given(g=graphs(), ks=st.lists(st.integers(1, 6), min_size=2, max_size=8))
    @example(g=cycle_graph(9), ks=[1, 3, 2, 2, 4, 1])
    def test_memo_matches_bfs_for_any_sequence_of_k(self, g, ks):
        for k in ks:
            assert all_k_closeness(g, k) == all_k_closeness_oracle(g, k)

    def test_k_past_convergence_keeps_distinct_rounds(self):
        # a 300-vertex path's balls stop growing after 299 rounds
        g = path_graph(300)
        values, examined = all_k_closeness(g, 299)
        assert (values, examined) == all_k_closeness_oracle(g, 299)
        assert examined == 179_398
        at_300 = all_k_closeness(g, 300)
        assert at_300[1] == 179_400
        assert len(g._ball_sizes) == 300
        for k in [100_000, 301, 1000]:
            fresh = path_graph(300)
            assert all_k_closeness(fresh, k) == all_k_closeness(g, k) == at_300
            assert len(fresh._ball_sizes) == len(g._ball_sizes) == 300
        assert all_k_closeness(g, 299) == (values, examined)
        assert all_k_closeness(g, 2) == all_k_closeness_oracle(g, 2)

    @pytest.mark.parametrize("g", [SnapshotGraph([]), SnapshotGraph([4, 2]), cycle_graph(9)])
    def test_converged_memo_matches_bfs(self, g):
        for k in [50, 1, 6, 3, 100]:
            assert all_k_closeness(g, k) == all_k_closeness_oracle(g, k)
        assert len(g._ball_sizes) == {0: 1, 2: 1, 9: 5}[g.n_vertices]

    def test_returned_values_are_the_callers_own(self):
        g = cycle_graph(7)
        first, _ = all_k_closeness(g, 2)
        expected = dict(first)
        first.clear()
        assert all_k_closeness(g, 2)[0] == expected
        assert all_k_closeness(g, 1) == all_k_closeness_oracle(g, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected_with_memo_filled(self, k):
        g = cycle_graph(5)
        all_k_closeness(g, 3)
        with pytest.raises(ValueError, match="k must be >= 1"):
            all_k_closeness(g, k)

    def test_tuner_searches_each_graph_once(self, monkeypatch):
        calls = spy_on_closeness_kernels(monkeypatch)
        trace = generate_two_way_roadway(30, 400.0, 5.0, seed=3)
        graphs = [build_udg(trace.positions_at(t)) for t in trace.times]
        res = tune_parameters(graphs, config=TunerConfig(d_max=2, k_max=2))
        assert res.n_evaluations > 1
        assert len(calls) == len({id(adj) for _, adj in calls}) == len(graphs)
        assert {kernel for kernel, _ in calls} == {self.kernel}


class TestRenumberedCloseness(TestBitsetCloseness):
    """Every closeness test again, with the breadth-first level kernel on
    for every graph, however small."""

    kernel = "level_rounds"

    @pytest.fixture(autouse=True, scope="class")
    def renumber_every_graph(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(apsel.graph, "RENUMBER_MIN_WORK", 1)
            yield

    # hypothesis binds a property test to one class, so the two oracle
    # comparisons are restated rather than inherited
    @given(g=graphs(), k=st.integers(1, 6))
    def test_values_and_edges_examined_match_bfs(self, g, k):
        assert all_k_closeness(g, k) == all_k_closeness_oracle(g, k)

    @given(g=graphs(), ks=st.lists(st.integers(1, 6), min_size=2, max_size=8))
    @example(g=cycle_graph(9), ks=[1, 3, 2, 2, 4, 1])
    def test_memo_matches_bfs_for_any_sequence_of_k(self, g, ks):
        for k in ks:
            assert all_k_closeness(g, k) == all_k_closeness_oracle(g, k)

    def test_rounds_run_in_breadth_first_numbering(self, monkeypatch):
        calls = spy_on_closeness_kernels(monkeypatch)
        searches = []

        def counted(adjacency):
            searches.append(breadth_first_order(adjacency))
            return searches[-1]

        monkeypatch.setattr(apsel.graph, "breadth_first_order", counted)
        # the path 0-3-1-5-2-4 is searched along the path, one vertex a level
        g = SnapshotGraph(range(6), [(0, 3), (3, 1), (1, 5), (5, 2), (2, 4)])
        assert all_k_closeness(g, 2) == all_k_closeness_oracle(g, 2)
        assert calls == [("level_rounds", g.adjacency)]
        assert searches == [([0, 3, 1, 5, 2, 4], [0, 1, 2, 3, 4, 5, 6], [0, 6])]
        # the rounds read the graph's own adjacency and give sizes by position
        assert g._ball_sizes[1] == [1 + g.degree(v) for v in g.vertices]


def test_reach_rounds_stop_at_the_first_round_that_adds_nothing():
    # the path 0-1-2 converges at h = 2, long before k = 5
    rounds = list(reach_rounds(((1,), (0, 2), (1,)), 5))
    assert [sizes for _, sizes in rounds] == [[1, 1, 1], [2, 3, 2], [3, 3, 3]]
    lists = [lst for pair in rounds for lst in pair]
    assert len({id(lst) for lst in lists}) == len(lists)


@given(g=st.one_of(graphs(), disjoint_unions()), k=st.integers(1, 6))
@example(g=SnapshotGraph(range(6), [(0, 1), (1, 2), (3, 4)]), k=6)
def test_level_rounds_match_reach_rounds(g, k):
    # several components, isolated vertices, and rounds that stop before k
    sizes = list(level_rounds(g.adjacency, k))
    assert sizes == [s for _, s in reach_rounds(g.adjacency, k)]
    assert len({id(lst) for lst in sizes}) == len(sizes)


class TestBreadthFirstOrder:
    @given(g=st.one_of(graphs(), disjoint_unions()))
    # the isolated 5 and 7 lie between the positions of the component {3, 9, 12}
    @example(g=SnapshotGraph([7, 3, 12, 5, 9], [(12, 3), (9, 3)]))
    def test_matches_queue_search(self, g):
        order, starts, components = breadth_first_order(g.adjacency)
        assert sorted(order) == list(range(g.n_vertices))
        assert (order, starts, components) == breadth_first_order_oracle(g)
        # each component is led by its lowest number, and no edge leaves it
        component = [0] * g.n_vertices
        for c, (lo, hi) in enumerate(zip(components, components[1:])):
            assert order[lo] == min(order[lo:hi])
            for v in order[lo:hi]:
                component[v] = c
        assert all(component[v] == component[u] for v, row in enumerate(g.adjacency) for u in row)
        assert set(components) <= set(starts)
        # the level kernel relies on neighbours being at most one level apart
        level = [0] * g.n_vertices
        for j, (lo, hi) in enumerate(zip(starts, starts[1:])):
            for v in order[lo:hi]:
                level[v] = j
        assert all(abs(level[v] - level[u]) <= 1 for v, row in enumerate(g.adjacency) for u in row)

    def test_components_and_isolated_vertices(self):
        # components {1, 4, 8}, {2, 9} and {3, 5, 7}; 0 and 6 are isolated
        g = SnapshotGraph(range(10), [(8, 1), (4, 8), (9, 2), (7, 3), (7, 5)])
        assert breadth_first_order(g.adjacency) == (
            [0, 1, 8, 4, 2, 9, 3, 7, 5, 6], list(range(11)), [0, 1, 4, 6, 9, 10]
        )
        h = SnapshotGraph([40, 10, 30, 20, 50], [(50, 10)])
        assert breadth_first_order(h.adjacency) == ([0, 4, 1, 2, 3], [0, 1, 2, 3, 4, 5], [0, 2, 3, 4, 5])
        # levels {0}, {2, 5}, {1, 3}, then the isolated 4
        f = SnapshotGraph(range(6), [(0, 2), (0, 5), (2, 1), (5, 3)])
        assert breadth_first_order(f.adjacency) == ([0, 2, 5, 1, 3, 4], [0, 1, 3, 5, 6], [0, 5, 6])
        assert breadth_first_order(()) == ([], [0], [0])

    def test_closeness_renumbers_once_n_times_k_reaches_the_threshold(self, monkeypatch):
        calls = spy_on_closeness_kernels(monkeypatch)
        sizes = []

        def counted(adjacency):
            sizes.append(len(adjacency))
            return breadth_first_order(adjacency)

        monkeypatch.setattr(apsel.graph, "breadth_first_order", counted)
        m = apsel.graph.RENUMBER_MIN_WORK
        half = (m + 1) // 2  # the fewest vertices with n * 2 >= m
        # k counts only up to 2: at k=3 and k=8 the line sits at half, not m / k
        cases = [
            (m - 1, 1, "reach_rounds"),
            (m, 1, "level_rounds"),
            (half - 1, 2, "reach_rounds"),
            (half, 2, "level_rounds"),
            ((m + 2) // 3, 3, "reach_rounds"),
            (half - 1, 3, "reach_rounds"),
            (half, 3, "level_rounds"),
            (m // 8, 8, "reach_rounds"),
            (half - 1, 8, "reach_rounds"),
            (half, 8, "level_rounds"),
        ]
        for n, k, _ in cases:
            g = SnapshotGraph(range(n))
            all_k_closeness(g, k)
            assert g._ball_sizes == [[1] * n]
        assert [(kernel, len(adj)) for kernel, adj in calls] == [(kernel, n) for n, _, kernel in cases]
        # the level kernel searches each graph it scores once
        assert sizes == [n for n, _, kernel in cases if kernel == "level_rounds"]


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
        # result equality covers points and slots_simulated
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


def is_connected(g: SnapshotGraph) -> bool:
    return not g.n_vertices or len(bfs_distances(g, g.vertices[0], g.n_vertices)[0]) == g.n_vertices


def assert_matches_set_based_search(g: SnapshotGraph, d: int) -> None:
    """Points and edges_examined agree with the whole-graph search; so
    does the node count on a connected graph, where both solvers run the
    same single search."""
    res, ref = exact_min_dominating_set(g, d), exact_min_dominating_set_oracle(g, d)
    if not is_connected(g):
        res, ref = res._replace(search_nodes=0), ref._replace(search_nodes=0)
    assert res == ref


# the paths 0-6-2-1 and 3-7-4-8-5: greedy covers the first optimally with
# {0, 2} but not the second, so the first path's witness is its first
# minimum cover in branch order, {0, 1}
TWO_PATHS = SnapshotGraph(range(9), [(0, 6), (6, 2), (2, 1), (3, 7), (7, 4), (4, 8), (8, 5)])


class TestBitsetExact:
    @given(g=exact_cases(), d=st.integers(1, 3))
    @example(g=SnapshotGraph([]), d=1)
    @example(g=SnapshotGraph([7]), d=2)
    @example(g=SnapshotGraph([5, 3, 9, 1], [(5, 3), (9, 1)]), d=1)
    def test_matches_set_based_search(self, g, d):
        assert_matches_set_based_search(g, d)

    @given(g=disjoint_unions(), d=st.integers(1, 3))
    @example(g=TWO_PATHS, d=1)
    def test_disjoint_unions_match_set_based_search(self, g, d):
        assert_matches_set_based_search(g, d)

    def test_component_with_optimal_greedy_gives_first_minimum_cover(self):
        assert exact_min_dominating_set(TWO_PATHS, 1).aggregation_points == {0, 1, 3, 8}

    def test_disjoint_copies_search_each_copy_once(self):
        # the path 0-2-1-3-4: greedy picks 1, 0 and 3, but 2 points suffice
        one = SnapshotGraph(range(5), [(0, 2), (2, 1), (1, 3), (3, 4)])
        nodes = exact_min_dominating_set(one, 1).search_nodes
        assert nodes > 1
        for k in range(2, 5):
            # copy j renames vertex v to v * k + j, so the copies interleave
            g = SnapshotGraph(
                [v * k + j for v in range(5) for j in range(k)],
                [(a * k + j, b * k + j) for a, b in one.edges() for j in range(k)],
            )
            assert exact_min_dominating_set(g, 1).search_nodes == k * nodes
            assert_matches_set_based_search(g, 1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_benchmark_strips_include_covers_greedy_misses(self, d):
        """The witness is the greedy cover only when that cover is optimal;
        strips where it is not exercise the search itself."""
        misses = 0
        for seed in range(60):
            g = udg_oracle(two_lane_strip(36, 3000.0, seed))
            assert_matches_set_based_search(g, d)
            res = exact_min_dominating_set(g, d)
            misses += not greedy_is_optimal(g, d, res.aggregation_points)
        assert misses >= 3

    def test_search_leaves_no_reference_cycle(self):
        # the 7-cycle's greedy cover is not proved at the root, so it is searched
        g = cycle_graph(7)
        gc.collect()
        gc.disable()
        try:
            exact_min_dominating_set(g, 1)
            assert gc.collect() == 0
        finally:
            gc.enable()

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
    """The all-pairs builder needs about 2.8 GB at 10k vehicles; the sweep
    must build 20k (mean degree about 10) well inside 200 MB. The graph,
    whose ids are not 0..n-1, retains about 3.2 MB, its position
    adjacency; an id-keyed copy of the adjacency kept beside it brought
    that to about 6.0 MB."""
    n, r, mean_degree = 20_000, 100.0, 10.0
    side = math.sqrt(n * math.pi * r * r / mean_degree)
    pos = geometric_snapshot(n, side, seed=20)
    snap = {7 * v + 1_000_003: xy for v, xy in pos.items()}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_udg(snap, RadioParams(range_r=r))
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
        retained -= before
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20
    assert retained < 4 * 2**20
    assert 9.0 < 2 * g.n_edges / n < 11.0
    pos = np.array([pos[v] for v in range(n)])
    for v in random.Random(0).sample(range(n), 200):
        diff = pos - pos[v]
        assert g.degree(7 * v + 1_000_003) == int(((diff * diff).sum(axis=1) <= r * r).sum()) - 1


def test_20k_vehicle_centrality_in_bounded_memory(monkeypatch):
    """Centrality d=1, k=4 on 20k vehicles at mean degree 10. Scored level
    by level in breadth-first numbering, the reach sets peak at about
    30 MB under tracemalloc; with two generations alive they peaked at
    about 60 MB, and in position order at about 102 MB. The ball sizes
    equal those of position order."""
    n, r, mean_degree = 20_000, 100.0, 10.0
    side = math.sqrt(n * math.pi * r * r / mean_degree)
    g = build_udg(geometric_snapshot(n, side, seed=20), RadioParams(range_r=r))
    tracemalloc.start()
    try:
        centrality_select(g, 1, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    monkeypatch.setattr(apsel.graph, "RENUMBER_MIN_WORK", math.inf)
    by_position = SnapshotGraph._from_sorted_adjacency(g.vertices, g.adjacency, g.n_edges)
    assert all_k_closeness(by_position, 4) == all_k_closeness(g, 4)
    assert by_position._ball_sizes == g._ball_sizes

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsel.graph import SnapshotGraph, UnknownVehicleError
from apsel.selection import (
    MAX_EXACT_VERTICES,
    GraphSizeError,
    SelectionResult,
    assign_to_aggregation_points,
    centrality_select,
    exact_min_dominating_set,
    rb_select,
    rb_select_with_slots,
    verify_domination,
)
from helpers import (
    brute_force_min_dominating_set,
    cycle_graph,
    gnp_graph,
    grid_graph,
    is_independent_set,
    path_graph,
    star_graph,
)

graph_seeds = st.integers(0, 2**32 - 1)


def triangle():
    return SnapshotGraph(range(3), [(0, 1), (1, 2), (0, 2)])


class TestVerifyDomination:
    def test_p5_examples(self):
        g = path_graph(5)
        assert verify_domination(g, {1, 3}, 1)
        assert not verify_domination(g, {0}, 1)
        assert verify_domination(g, {2}, 2)

    def test_empty_graph_dominated_by_nothing(self):
        assert verify_domination(SnapshotGraph([], []), set(), 1)

    def test_nonempty_graph_needs_points(self):
        assert not verify_domination(path_graph(2), set(), 1)

    def test_unknown_point(self):
        with pytest.raises(UnknownVehicleError):
            verify_domination(path_graph(3), {9}, 1)

    @given(seed=graph_seeds, n=st.integers(1, 25), d=st.integers(1, 3))
    def test_full_vertex_set_always_dominates(self, seed, n, d):
        g = gnp_graph(n, 0.2, seed)
        assert verify_domination(g, set(g.vertices), d)


class TestAssignment:
    def test_prefers_lowest_id_on_tie(self):
        g = cycle_graph(4)  # vehicle 1 adjacent to points 0 and 2
        assert assign_to_aggregation_points(g, {0, 2}, 1) == {1: 0, 3: 0}

    def test_prefers_closer_point(self):
        g = path_graph(5)
        out = assign_to_aggregation_points(g, {0, 4}, 2)
        assert out == {1: 0, 2: 0, 3: 4}

    def test_uncovered_vehicle_left_out(self):
        g = SnapshotGraph([0, 1, 2], [(0, 1)])
        assert assign_to_aggregation_points(g, {0}, 1) == {1: 0}

    def test_unknown_point(self):
        with pytest.raises(UnknownVehicleError):
            assign_to_aggregation_points(path_graph(3), {9}, 1)

    @pytest.mark.parametrize("d", [0, -1])
    def test_radius_below_one_rejected(self, d):
        with pytest.raises(ValueError):
            assign_to_aggregation_points(path_graph(3), set(), d)


class TestCentralitySelect:
    def test_p3_picks_center(self):
        res = centrality_select(path_graph(3), d=1, k=2)
        assert res.aggregation_points == frozenset({1})
        assert assign_to_aggregation_points(path_graph(3), res.aggregation_points, 1) == {0: 1, 2: 1}

    def test_p5_greedy_trace(self):
        # scores 1/10, 1/7, 1/6, 1/7, 1/10: pick 2, drop 1..3, then 0, then 4
        res = centrality_select(path_graph(5), d=1, k=4)
        assert res.aggregation_points == frozenset({0, 2, 4})

    def test_p5_wider_radius(self):
        res = centrality_select(path_graph(5), d=2, k=4)
        assert res.aggregation_points == frozenset({2})

    def test_edges_examined_comes_from_scoring_pass(self):
        g = path_graph(3)
        res = centrality_select(g, d=1, k=2)
        # ends scan 1+2 entries each, center scans 2 then expands both leaves
        assert res.edges_examined == 10

    def test_empty_graph(self):
        res = centrality_select(SnapshotGraph([], []), 1, 4)
        assert res.aggregation_points == frozenset()

    def test_radius_beyond_the_graph_costs_no_more_than_its_size(self):
        # each point's cover walk stops once a round reaches nothing, so a
        # d past the graph's diameter costs no more than the diameter
        g = gnp_graph(50, 0.05, 3)
        start = time.process_time()
        assert centrality_select(g, 10**9, 4) == centrality_select(g, g.n_vertices, 4)
        assert time.process_time() - start < 1.0

    @given(seed=graph_seeds, n=st.integers(1, 40), d=st.integers(1, 3), k=st.integers(1, 6))
    def test_output_always_dominates(self, seed, n, d, k):
        g = gnp_graph(n, 0.2, seed)
        res = centrality_select(g, d, k)
        assert verify_domination(g, res.aggregation_points, d)

    @given(seed=graph_seeds, n=st.integers(1, 30))
    def test_assignment_respects_radius(self, seed, n):
        g = gnp_graph(n, 0.25, seed)
        res = centrality_select(g, d=2, k=4)
        pts = res.aggregation_points
        for v, p in assign_to_aggregation_points(g, pts, 2).items():
            assert v not in pts and p in pts


class TestRbSelect:
    def test_forced_slots_path(self):
        g = path_graph(3)
        res = rb_select_with_slots(g, {1: 0, 0: 1, 2: 2}, 3)
        assert res.aggregation_points == frozenset({1})
        assert res.slots_simulated == 1  # both neighbors drop after the first tick

    def test_collision_keeps_contenders_in(self):
        # 0 and 2 both shout in slot 0; 1 hears a collision, stays, wins slot 1
        g = path_graph(3)
        res = rb_select_with_slots(g, {0: 0, 2: 0, 1: 1}, 4)
        assert res.aggregation_points == frozenset({0, 1, 2})

    def test_everyone_same_slot(self):
        res = rb_select_with_slots(triangle(), {0: 0, 1: 0, 2: 0}, 2)
        assert res.aggregation_points == frozenset({0, 1, 2})

    def test_single_slot_frame_selects_all(self):
        g = gnp_graph(12, 0.4, 7)
        res = rb_select(g, slots=1, seed=3)
        assert res.aggregation_points == frozenset(g.vertices)

    def test_seed_reproducible(self):
        g = gnp_graph(30, 0.2, 11)
        a = rb_select(g, slots=64, seed=5)
        b = rb_select(g, slots=64, seed=5)
        assert a.aggregation_points == b.aggregation_points
        assert assign_to_aggregation_points(g, a.aggregation_points, 1) == (
            assign_to_aggregation_points(g, b.aggregation_points, 1)
        )

    def test_missing_slot_rejected(self):
        with pytest.raises(ValueError):
            rb_select_with_slots(path_graph(2), {0: 0}, 4)

    def test_slot_out_of_frame_rejected(self):
        with pytest.raises(ValueError):
            rb_select_with_slots(path_graph(2), {0: 0, 1: 4}, 4)

    @given(seed=graph_seeds, n=st.integers(1, 40))
    def test_output_always_dominates_at_one_hop(self, seed, n):
        g = gnp_graph(n, 0.2, seed)
        res = rb_select(g, slots=16, seed=seed)
        assert verify_domination(g, res.aggregation_points, 1)

    @given(seed=graph_seeds, n=st.integers(1, 30))
    def test_distinct_slots_give_maximal_independent_set(self, seed, n):
        # without collisions the winners are exactly an MIS
        g = gnp_graph(n, 0.3, seed)
        order = list(g.vertices)
        slots = {v: i for i, v in enumerate(order)}
        res = rb_select_with_slots(g, slots, n)
        pts = res.aggregation_points
        assert is_independent_set(g, pts)
        assert verify_domination(g, pts, 1)


class TestExactSolver:
    def test_known_minimums(self):
        assert len(exact_min_dominating_set(path_graph(5), 1).aggregation_points) == 2
        assert len(exact_min_dominating_set(cycle_graph(6), 1).aggregation_points) == 2
        assert len(exact_min_dominating_set(grid_graph(3, 3), 1).aggregation_points) == 3
        assert len(exact_min_dominating_set(triangle(), 1).aggregation_points) == 1

    def test_d2_on_path(self):
        assert len(exact_min_dominating_set(path_graph(5), 2).aggregation_points) == 1

    def test_empty_graph(self):
        res = exact_min_dominating_set(SnapshotGraph([], []), 1)
        assert res.aggregation_points == frozenset()

    def test_size_guard(self):
        with pytest.raises(GraphSizeError):
            exact_min_dominating_set(SnapshotGraph(range(MAX_EXACT_VERTICES + 1)), 1)
        with pytest.raises(GraphSizeError):
            brute_force_min_dominating_set(gnp_graph(15, 0.3, 1), 1, max_vertices=10)

    @given(seed=graph_seeds, n=st.integers(1, 11), p=st.sampled_from([0.2, 0.5]), d=st.integers(1, 3))
    @settings(max_examples=80)
    def test_matches_brute_force(self, seed, n, p, d):
        g = gnp_graph(n, p, seed)
        exact = exact_min_dominating_set(g, d)
        witness = brute_force_min_dominating_set(g, d)
        assert len(exact.aggregation_points) == len(witness)
        assert verify_domination(g, exact.aggregation_points, d)

    @given(seed=graph_seeds, n=st.integers(1, 12), d=st.integers(1, 2))
    def test_greedy_never_beats_exact(self, seed, n, d):
        g = gnp_graph(n, 0.3, seed)
        exact = exact_min_dominating_set(g, d)
        greedy = centrality_select(g, d, 4)
        assert len(greedy.aggregation_points) >= len(exact.aggregation_points)


class TestResultShape:
    def test_defaults(self):
        r = SelectionResult(frozenset({1}))
        assert assign_to_aggregation_points(SnapshotGraph([1]), r.aggregation_points, 1) == {}
        assert r.edges_examined == 0 and r.slots_simulated == 0

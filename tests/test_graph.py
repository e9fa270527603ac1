import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apsel.graph import SnapshotGraph, UnknownVehicleError, all_k_closeness
from apsel.mobility import build_udg
from helpers import (
    bfs_distances,
    full_closeness_from_matrix,
    gnp_graph,
    hop_matrix,
    path_graph,
    star_graph,
    truncated_closeness_from_matrix,
)

graph_seeds = st.integers(0, 2**32 - 1)


def triangle():
    return SnapshotGraph(range(3), [(0, 1), (1, 2), (0, 2)])


class TestSnapshotGraph:
    def test_adjacency_is_symmetric_and_sorted(self):
        g = SnapshotGraph([3, 1, 2], [(3, 1), (2, 3)])
        assert g.vertices == (1, 2, 3)
        assert g.neighbors(3) == (1, 2)
        assert g.neighbors(1) == (3,)
        assert g.has_edge(1, 3) and g.has_edge(3, 1)

    def test_duplicate_edges_collapse(self):
        g = SnapshotGraph(range(2), [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            SnapshotGraph(range(2), [(1, 1)])

    def test_edge_to_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVehicleError):
            SnapshotGraph(range(2), [(0, 5)])

    def test_negative_id_accepted(self):
        # positions are id ranks, so a shift of every id changes no position
        g = SnapshotGraph([-1, 5, -7], [(-1, 5), (5, -7)])
        assert g.vertices == (-7, -1, 5)
        assert g.neighbors(5) == (-7, -1) and g.has_edge(-7, 5)
        assert g.adjacency == SnapshotGraph([6, 12, 0], [(6, 12), (12, 0)]).adjacency

    @pytest.mark.parametrize("ids", [[0.5, 0.7], ["3", 4], [1, np.float64(2.5)]])
    def test_non_integer_id_rejected(self, ids):
        # int() would fold 0.5 and 0.7 into one vehicle 0, and '3' into 3
        with pytest.raises(ValueError, match="integers") as graph_error:
            SnapshotGraph(ids, [])
        with pytest.raises(ValueError, match="integers") as udg_error:
            build_udg({v: (0.0, 0.0) for v in ids})
        assert str(udg_error.value) == str(graph_error.value)

    def test_integral_ids_become_int(self):
        g = SnapshotGraph([np.int64(2), 3.0, np.float64(5.0)], [(2, 3.0)])
        u = build_udg({np.int64(2): (0.0, 0.0), 3.0: (1.0, 0.0), np.float64(5.0): (500.0, 0.0)})
        for graph in (g, u):
            assert graph.vertices == (2, 3, 5)
            assert all(type(v) is int for v in graph.vertices)
            assert graph.neighbors(3) == (2,)

    def test_key_no_id_compares_with_is_absent(self):
        g = triangle()
        assert [1] not in g and "a" not in g and None not in g
        assert not g.has_edge([1], 0) and not g.has_edge(0, "a")
        with pytest.raises(UnknownVehicleError):
            g.neighbors("a")

    def test_edges_iterates_each_once(self):
        g = triangle()
        assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]


class TestBfsDistances:
    def test_path_cutoff_2(self):
        dist, _ = bfs_distances(path_graph(3), 0, 2)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_path_cutoff_truncates(self):
        dist, _ = bfs_distances(path_graph(3), 0, 1)
        assert dist == {0: 0, 1: 1}

    def test_isolated_vertex(self):
        g = SnapshotGraph([7], [])
        dist, scanned = bfs_distances(g, 7, 4)
        assert dist == {7: 0}
        assert scanned == 0

    def test_unknown_source(self):
        with pytest.raises(UnknownVehicleError, match="99"):
            bfs_distances(path_graph(3), 99, 1)

    def test_cutoff_must_be_positive(self):
        with pytest.raises(ValueError):
            bfs_distances(path_graph(3), 0, 0)

    def test_edge_examination_count_on_path(self):
        # expand 0 (1 entry) and 1 (2 entries); 2 sits at the cutoff
        _, scanned = bfs_distances(path_graph(3), 0, 2)
        assert scanned == 3

    @given(seed=graph_seeds, n=st.integers(1, 50), p=st.sampled_from([0.1, 0.3]))
    def test_matches_floyd_warshall_oracle(self, seed, n, p):
        g = gnp_graph(n, p, seed)
        verts, mat = hop_matrix(g)
        index = {v: i for i, v in enumerate(verts)}
        cutoff = n  # no truncation at full depth
        for v in g.vertices:
            dist, _ = bfs_distances(g, v, cutoff)
            expected = {
                u: int(mat[index[v], index[u]])
                for u in verts
                if mat[index[v], index[u]] <= cutoff
            }
            assert dist == expected


class TestKCloseness:
    def test_center_of_p3(self):
        values, _ = all_k_closeness(path_graph(3), 2)
        assert values[1] == 0.5

    def test_p5_end_at_k2(self):
        # hand BFS on the path: distances 1 and 2 within reach
        values, _ = all_k_closeness(path_graph(5), 2)
        assert values[0] == pytest.approx(1.0 / 3.0)

    def test_isolated_vertex_is_zero(self):
        g = SnapshotGraph([0], [])
        for k in (1, 3, 10):
            assert all_k_closeness(g, k)[0] == {0: 0.0}

    def test_star_k1(self):
        g = star_graph(4)
        values, _ = all_k_closeness(g, 1)
        assert values[0] == 0.25
        assert all(values[leaf] == 1.0 for leaf in range(1, 5))

    def test_triangle_k1(self):
        values, _ = all_k_closeness(triangle(), 1)
        assert values == {0: 0.5, 1: 0.5, 2: 0.5}

    def test_empty_graph(self):
        values, scanned = all_k_closeness(SnapshotGraph([], []), 3)
        assert values == {}
        assert scanned == 0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            all_k_closeness(path_graph(2), 0)

    @given(seed=graph_seeds, n=st.integers(1, 30), k=st.integers(1, 6))
    def test_matches_truncated_oracle(self, seed, n, k):
        g = gnp_graph(n, 0.25, seed)
        verts, mat = hop_matrix(g)
        expected = truncated_closeness_from_matrix(verts, mat, k)
        values, _ = all_k_closeness(g, k)
        assert values.keys() == expected.keys()
        for v in values:
            assert values[v] == pytest.approx(expected[v], abs=1e-12)

    @given(seed=graph_seeds, n=st.integers(2, 25), k=st.integers(1, 5))
    def test_deepening_never_increases_centrality(self, seed, n, k):
        g = gnp_graph(n, 0.3, seed)
        shallow, _ = all_k_closeness(g, k)
        deep, _ = all_k_closeness(g, k + 1)
        for v in g.vertices:
            if shallow[v] > 0:
                assert deep[v] <= shallow[v] + 1e-15
            ring, _ = bfs_distances(g, v, k + 1)
            if (k + 1) not in ring.values():
                assert deep[v] == shallow[v]

    @given(seed=graph_seeds, n=st.integers(2, 40))
    def test_equals_plain_closeness_beyond_diameter(self, seed, n):
        g = gnp_graph(n, 0.3, seed)
        verts, mat = hop_matrix(g)
        expected = full_closeness_from_matrix(verts, mat)
        values, _ = all_k_closeness(g, n)  # k >= any possible diameter
        for v in g.vertices:
            assert values[v] == pytest.approx(expected[v], abs=1e-12)

    @given(seed=graph_seeds, n=st.integers(1, 20), shift=st.integers(1, 1000))
    def test_relabeling_permutes_values(self, seed, n, shift):
        g = gnp_graph(n, 0.3, seed)
        relabeled = SnapshotGraph(
            [v + shift for v in g.vertices],
            [(i + shift, j + shift) for i, j in g.edges()],
        )
        base, _ = all_k_closeness(g, 3)
        moved, _ = all_k_closeness(relabeled, 3)
        assert sorted(base.values()) == sorted(moved.values())
        for v in g.vertices:
            assert moved[v + shift] == base[v]

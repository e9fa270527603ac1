"""Optimum sizes of the exact solver against a MILP solver.

The set-cover model is independent of the branch and bound: minimise the
number of points subject to every vehicle having a point within d hops,
with balls from per-vertex BFS. scipy is a test extra, never a package
dependency, so the module skips without it.
"""

import random

import numpy as np
import pytest

from apsel.graph import SnapshotGraph, bfs_distances
from apsel.mobility import RadioParams, build_udg, generate_two_way_roadway
from apsel.selection import exact_min_dominating_set, verify_domination
from helpers import connected_gnp_graph, two_lane_strip, udg_oracle

optimize = pytest.importorskip("scipy.optimize")


def milp_optimum(g: SnapshotGraph, d: int) -> int:
    """Minimum d-hop dominating set size: min sum x, ball(v) . x >= 1, x binary."""
    index = {v: i for i, v in enumerate(g.vertices)}
    n = len(index)
    cover = np.zeros((n, n))
    for v in g.vertices:
        for u in bfs_distances(g, v, d)[0]:
            cover[index[v], index[u]] = 1.0
    res = optimize.milp(
        c=np.ones(n),
        constraints=optimize.LinearConstraint(cover, lb=1.0, ub=np.inf),
        integrality=np.ones(n),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    assert res.success, res.message
    return round(res.fun)


def disjoint_union(parts: list[SnapshotGraph], seed: int) -> SnapshotGraph:
    """The parts side by side, relabelled so that their ids interleave."""
    total = sum(p.n_vertices for p in parts)
    ids = random.Random(seed).sample(range(10 * total), total)
    vertices, edges, start = [], [], 0
    for part in parts:
        local = {v: ids[start + i] for i, v in enumerate(part.vertices)}
        vertices += local.values()
        edges += [(local[a], local[b]) for a, b in part.edges()]
        start += part.n_vertices
    return SnapshotGraph(vertices, edges)


@pytest.mark.parametrize("d", [1, 2])
def test_150_vehicle_roadway_snapshot(d):
    # three components of 99, 43 and 8 vehicles at d=1
    trace = generate_two_way_roadway(150, 4000.0)
    g = build_udg(trace.positions_at(0.0), RadioParams())
    res = exact_min_dominating_set(g, d)
    assert verify_domination(g, res.aggregation_points, d)
    assert len(res.aggregation_points) == milp_optimum(g, d)


@pytest.mark.parametrize("seed", range(8))
def test_random_multi_component_graphs(seed):
    rng = random.Random(seed)
    parts = [connected_gnp_graph(rng.randint(1, 15), 0.15, rng.randrange(10**6)) for _ in range(3)]
    parts.append(udg_oracle(two_lane_strip(30, 3000.0, seed)))
    g = disjoint_union(parts, seed)
    for d in (1, 2, 3):
        res = exact_min_dominating_set(g, d)
        assert verify_domination(g, res.aggregation_points, d)
        assert len(res.aggregation_points) == milp_optimum(g, d)

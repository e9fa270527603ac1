"""Shared graph builders and independent reference computations for tests.

The Floyd-Warshall oracle here deliberately avoids the package's BFS code
path: distances come from repeated min-plus relaxation over a dense matrix.

The ``*_oracle`` functions are the package's earlier straightforward
kernels, kept as references for the fast ones: the all-pairs unit-disk
builder, the heading comparison through displacement vectors, per-source
BFS closeness, the ``max()``-scan greedy pick, the tick-by-tick
reservation frame and the set-based exact branch and bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from apsel.graph import SnapshotGraph, bfs_distances
from apsel.mobility import RadioParams
from apsel.selection import (
    GraphSizeError,
    SelectionResult,
    _closed_neighborhoods,
    assign_to_aggregation_points,
)


def path_graph(n: int) -> SnapshotGraph:
    return SnapshotGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SnapshotGraph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SnapshotGraph(range(n), edges)


def star_graph(n_leaves: int) -> SnapshotGraph:
    return SnapshotGraph(range(n_leaves + 1), [(0, i) for i in range(1, n_leaves + 1)])


def grid_graph(rows: int, cols: int) -> SnapshotGraph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return SnapshotGraph(range(rows * cols), edges)


def gnp_graph(n: int, p: float, seed: int) -> SnapshotGraph:
    """Erdos-Renyi G(n, p) with a private RNG, vertices 0..n-1."""
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return SnapshotGraph(range(n), edges)


def connected_gnp_graph(n: int, p: float, seed: int) -> SnapshotGraph:
    """G(n, p) plus a random spanning path so the result is connected."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted(e)) for e in zip(order, order[1:])}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return SnapshotGraph(range(n), sorted(edges))


def geometric_snapshot(
    n: int, area_side: float, seed: int
) -> dict[int, tuple[float, float]]:
    """Uniform random positions in a square, keyed by vehicle id."""
    rng = random.Random(seed)
    return {
        i: (rng.uniform(0.0, area_side), rng.uniform(0.0, area_side)) for i in range(n)
    }


def two_lane_strip(
    n: int, length: float, seed: int
) -> dict[int, tuple[float, float]]:
    """n vehicles uniform along a two-lane road 4 m wide, even ids in the
    lower lane: the benchmark's sparse exact snapshots at length 3000."""
    rng = random.Random(seed)
    return {v: (rng.uniform(0.0, length), 2.0 if v % 2 else -2.0) for v in range(n)}


def hop_matrix(g: SnapshotGraph) -> tuple[list[int], np.ndarray]:
    """All-pairs hop distances by Floyd-Warshall min-plus relaxation."""
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for i, j in g.edges():
        dist[index[i], index[j]] = 1.0
        dist[index[j], index[i]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return verts, dist


def truncated_closeness_from_matrix(
    verts: list[int], dist: np.ndarray, k: int
) -> dict[int, float]:
    """k-limited closeness derived from a full distance matrix."""
    out = {}
    for i, v in enumerate(verts):
        row = dist[i]
        mask = (row >= 1) & (row <= k)
        farness = row[mask].sum()
        out[v] = 1.0 / float(farness) if farness > 0 else 0.0
    return out


def full_closeness_from_matrix(verts: list[int], dist: np.ndarray) -> dict[int, float]:
    """Plain closeness (reciprocal farness over all reachable vertices)."""
    out = {}
    for i, v in enumerate(verts):
        row = dist[i]
        mask = np.isfinite(row) & (row >= 1)
        farness = row[mask].sum()
        out[v] = 1.0 / float(farness) if farness > 0 else 0.0
    return out


def diameter(dist: np.ndarray) -> int:
    finite = dist[np.isfinite(dist)]
    return int(finite.max()) if finite.size else 0


def is_independent_set(g: SnapshotGraph, s: set[int]) -> bool:
    return not any(g.has_edge(i, j) for i in s for j in s if i < j)


def mean_degree(g: SnapshotGraph) -> float:
    return 2.0 * g.n_edges / g.n_vertices if g.n_vertices else 0.0


def euclid(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.dist(a, b)


def udg_oracle(
    snapshot: dict[int, tuple[float, float]], radio: RadioParams = RadioParams()
) -> SnapshotGraph:
    """Unit-disk graph by testing all n(n-1)/2 pairs; O(n^2) memory."""
    ids = sorted(snapshot)
    n = len(ids)
    if n < 2:
        return SnapshotGraph(ids, [])
    pos = np.array([snapshot[v] for v in ids], dtype=float)
    ii, jj = np.triu_indices(n, k=1)
    diff = pos[ii] - pos[jj]
    sq = (diff * diff).sum(axis=1)
    within = sq <= radio.range_r * radio.range_r
    edges = [(ids[i], ids[j]) for i, j in zip(ii[within], jj[within])]
    return SnapshotGraph(ids, edges)


@dataclass(frozen=True)
class DisplacementVector:
    """Movement of one vehicle over one sampling step."""

    dx: float
    dy: float
    magnitude: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "magnitude", math.hypot(self.dx, self.dy))

    @property
    def is_neutral(self) -> bool:
        return self.magnitude == 0.0


def direction_angle(wi: DisplacementVector, wj: DisplacementVector) -> float:
    """Angle in degrees between two displacement vectors, in [0, 180].

    atan2 of the cross/dot pair keeps boundary cases exact: parallel
    axis-aligned vs diagonal unit vectors come out at 45.0, not a hair
    above it.
    """
    if wi.is_neutral or wj.is_neutral:
        raise ValueError("direction angle undefined for a zero displacement")
    dot = wi.dx * wj.dx + wi.dy * wj.dy
    cross = wi.dx * wj.dy - wi.dy * wj.dx
    return math.degrees(math.atan2(abs(cross), dot))


def displacements_at(
    snapshot: dict[int, tuple[float, float]],
    prev_snapshot: dict[int, tuple[float, float]],
) -> dict[int, DisplacementVector]:
    """Per-vehicle displacement since the previous snapshot.

    Vehicles absent from the previous snapshot get no entry, which the
    direction filter treats as neutral.
    """
    out = {}
    for v, (x, y) in snapshot.items():
        if v in prev_snapshot:
            px, py = prev_snapshot[v]
            out[v] = DisplacementVector(x - px, y - py)
    return out


def all_k_closeness_oracle(g: SnapshotGraph, k: int) -> tuple[dict[int, float], int]:
    """k-limited closeness by one depth-limited BFS per vertex."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    values: dict[int, float] = {}
    total_edges = 0
    for v in g.vertices:
        dist, scanned = bfs_distances(g, v, k)
        farness = sum(dist.values())
        values[v] = 1.0 / farness if farness else 0.0
        total_edges += scanned
    return values, total_edges


def centrality_select_oracle(g: SnapshotGraph, d: int = 1, k: int = 4) -> SelectionResult:
    """Greedy pick that rescans the remaining pool with max() every round."""
    centrality, examined = all_k_closeness_oracle(g, k)
    remaining = set(g.vertices)
    points: list[int] = []
    while remaining:
        v = max(remaining, key=lambda u: (centrality[u], -u))
        points.append(v)
        remaining.discard(v)
        dist, _ = bfs_distances(g, v, d)
        remaining.difference_update(dist)
    chosen = frozenset(points)
    return SelectionResult(
        aggregation_points=chosen,
        assignment=assign_to_aggregation_points(g, chosen, d),
        edges_examined=examined,
    )


def rb_select_with_slots_oracle(
    g: SnapshotGraph, slots: dict[int, int], frame_length: int
) -> SelectionResult:
    """Reservation frame that scans every contender on every tick."""
    contenders = set(g.vertices)
    points: set[int] = set()
    ticks = 0
    for s in range(frame_length):
        if not contenders:
            break
        ticks += 1
        transmitters = {v for v in contenders if slots[v] == s}
        if not transmitters:
            continue
        points.update(transmitters)
        contenders.difference_update(transmitters)
        dominated = set()
        for v in contenders:
            heard = sum(1 for u in g.neighbors(v) if u in transmitters)
            if heard == 1:
                dominated.add(v)
        contenders.difference_update(dominated)
    chosen = frozenset(points)
    return SelectionResult(
        aggregation_points=chosen,
        assignment=assign_to_aggregation_points(g, chosen, 1),
        slots_simulated=ticks,
    )


def _greedy_cover(vertices, closed) -> list[int]:
    uncovered = set(vertices)
    picked = []
    while uncovered:
        v = max(vertices, key=lambda u: (len(closed[u] & uncovered), -u))
        picked.append(v)
        uncovered -= closed[v]
    return picked


def _disjoint_packing_bound(uncovered, closed, order) -> int:
    """Count uncovered vertices with pairwise-disjoint closed neighborhoods.

    Any dominating set needs one point per packed vertex, so the count
    lower-bounds the optimum restricted to what is still uncovered.
    """
    blocked: set[int] = set()
    count = 0
    for v in order:
        if v in uncovered and not (closed[v] & blocked):
            count += 1
            blocked |= closed[v]
    return count


def exact_min_dominating_set_oracle(
    g: SnapshotGraph, d: int = 1, max_vertices: int = 200
) -> SelectionResult:
    """Minimum d-hop dominating set via set-cover branch and bound.

    Branches on the uncovered vertex with the fewest potential coverers,
    prunes with a disjoint-neighborhood packing bound, and starts from
    the greedy cover as incumbent. Worst case is exponential, hence the
    max_vertices guard. Vertex sets are Python sets; search_nodes counts
    the branch calls, so the fast solver's search tree can be compared.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if g.n_vertices > max_vertices:
        raise GraphSizeError(
            f"graph has {g.n_vertices} vertices, exact solver capped at {max_vertices}"
        )
    if not g.n_vertices:
        return SelectionResult(frozenset())

    closed, examined = _closed_neighborhoods(g, d)
    vertices = list(g.vertices)
    # coverers[v] = vertices whose closed neighborhood includes v
    coverers: dict[int, list[int]] = {v: [] for v in vertices}
    for u in vertices:
        for v in closed[u]:
            coverers[v].append(u)
    for v in vertices:
        coverers[v].sort()

    best = _greedy_cover(vertices, closed)
    pack_order = sorted(vertices, key=lambda v: (len(closed[v]), v))
    nodes = 0

    def branch(chosen: list[int], uncovered: set[int]):
        nonlocal best, nodes
        nodes += 1
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + _disjoint_packing_bound(uncovered, closed, pack_order) >= len(
            best
        ):
            return
        pivot = min(uncovered, key=lambda v: (len(coverers[v]), v))
        for u in coverers[pivot]:
            chosen.append(u)
            branch(chosen, uncovered - closed[u])
            chosen.pop()

    branch([], set(vertices))
    chosen = frozenset(best)
    return SelectionResult(
        aggregation_points=chosen,
        assignment=assign_to_aggregation_points(g, chosen, d),
        edges_examined=examined,
        search_nodes=nodes,
    )


def adjacency(g: SnapshotGraph) -> dict[int, tuple[int, ...]]:
    return {v: g.neighbors(v) for v in g.vertices}

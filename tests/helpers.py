"""Shared graph builders and independent reference computations for tests.

The Floyd-Warshall oracle here deliberately avoids the package's BFS code
path: distances come from repeated min-plus relaxation over a dense matrix.
``bfs_distances`` is a plain queue-based search with a depth cutoff, the
per-source reference under several oracles below.

``TracePoint`` is one (time, vehicle, x, y) row, the rows ``Trace`` is
built from, and ``trace_samples`` reads a trace back as such rows.

The ``*_oracle`` functions are the package's earlier straightforward
kernels, kept as references for the fast ones: the all-pairs unit-disk
builder, the trace loader that built one TracePoint per sample, the
heading comparison through displacement vectors, per-source BFS
closeness, a queue-based breadth-first order, the ``max()``-scan greedy pick, the tick-by-tick
reservation frame, the set-based exact branch and bound, the
per-point BFS assignment to the nearest point and the Nelder-Mead search
on numpy 2-vectors. numpy is a test dependency only.
``brute_force_min_dominating_set`` is the exhaustive tiny-n witness
that validates the exact solver. ``reference_run`` puts the oracles
together into the rows of a whole ``run``, from the README's rules for
period boundaries, headings and the rb frame's seed.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
import statistics
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import apsel.selection
from apsel.graph import SnapshotGraph, UnknownVehicleError
from apsel.metrics import PACKET_SIZE_BYTES, PeriodMetrics
from apsel.mobility import TRACE_HEADER, RadioParams, Trace, TraceFormatError
from apsel.selection import GraphSizeError, SelectionResult
from apsel.tuner import (
    CONTRACTION,
    EXPANSION,
    REFLECTION,
    SHRINK,
    TOLERANCE,
    _clamp,
)


class TracePoint(NamedTuple):
    time: float
    vehicle: int
    x: float
    y: float


def trace_samples(trace: Trace) -> tuple[TracePoint, ...]:
    """Every sample of the trace, ordered by (time, vehicle)."""
    return tuple(
        TracePoint(t, v, x, y)
        for t in trace.times
        for v, (x, y) in trace.positions_at(t).items()
    )


def bfs_distances(g: SnapshotGraph, source: int, cutoff: int) -> tuple[dict[int, int], int]:
    """Hop distances from ``source`` to every vertex within ``cutoff`` hops.

    Returns ``(distances, edges_examined)`` where ``distances`` maps each
    reached vertex to its hop count (source included at 0), omitting the
    vertices farther than ``cutoff``, and ``edges_examined`` counts the
    adjacency entries scanned, i.e. the enqueueing attempts made by the
    search. Vertices at depth ``cutoff`` are not expanded further.
    """
    if source not in g:
        raise UnknownVehicleError(source)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    dist = {source: 0}
    edges_examined = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du == cutoff:
            continue
        for w in g.neighbors(u):
            edges_examined += 1
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist, edges_examined


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


def udg_edges_oracle(
    snapshot: dict[int, tuple[float, float]], radio: RadioParams = RadioParams()
) -> list[tuple[int, int]]:
    """Unit-disk edges (i, j), i < j, by testing all n(n-1)/2 pairs;
    O(n^2) memory."""
    ids = sorted(snapshot)
    n = len(ids)
    if n < 2:
        return []
    pos = np.array([snapshot[v] for v in ids], dtype=float)
    ii, jj = np.triu_indices(n, k=1)
    diff = pos[ii] - pos[jj]
    sq = (diff * diff).sum(axis=1)
    within = sq <= radio.range_r * radio.range_r
    return [(ids[i], ids[j]) for i, j in zip(ii[within], jj[within])]


def udg_oracle(
    snapshot: dict[int, tuple[float, float]], radio: RadioParams = RadioParams()
) -> SnapshotGraph:
    """Unit-disk graph from ``udg_edges_oracle``."""
    return SnapshotGraph(sorted(snapshot), udg_edges_oracle(snapshot, radio))


class TraceOracle:
    """The earlier Trace: every sample a TracePoint, sorted and kept next to
    the per-instant map. Only the sampling period follows the package's
    current rule, the median gap between consecutive instants."""

    def __init__(self, points):
        pts = sorted(points, key=lambda p: (p.time, p.vehicle))
        if not pts:
            raise TraceFormatError("trace has no samples")
        by_time: dict[float, dict[int, tuple[float, float]]] = {}
        for p in pts:
            at = by_time.setdefault(p.time, {})
            if p.vehicle in at:
                raise TraceFormatError(
                    f"duplicate sample for vehicle {p.vehicle}"
                    f" at t={float(next(q.time for q in points if q.time == p.time))}"
                )
            at[p.vehicle] = (p.x, p.y)
        self._points = tuple(pts)
        self._by_time = by_time
        times = sorted(by_time)
        self._times = tuple(times)
        gaps = [b - a for a, b in zip(times, times[1:])]
        self._period = statistics.median_low(gaps) if gaps else 1.0

    @property
    def points(self) -> tuple[TracePoint, ...]:
        return self._points

    @property
    def times(self) -> tuple[float, ...]:
        return self._times

    @property
    def sampling_period(self) -> float:
        return self._period

    @property
    def vehicles(self) -> tuple[int, ...]:
        return tuple(sorted({p.vehicle for p in self._points}))

    def positions_at(self, t: float) -> dict[int, tuple[float, float]]:
        return dict(self._by_time.get(t, {}))

    def __len__(self):
        return len(self._points)


def load_trace_csv_oracle(path) -> TraceOracle:
    """Read a trace from CSV with header time,id,x,y.

    Malformed rows, including a NaN or infinite time or coordinate, an id
    outside the signed 64-bit range and a line the csv module rejects,
    raise TraceFormatError naming the physical line on which the row ends.
    """
    points = []
    isfinite = math.isfinite
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != TRACE_HEADER:
                raise TraceFormatError(
                    f"expected header {','.join(TRACE_HEADER)!r}, got {header!r}"
                )
            for row in reader:
                lineno = reader.line_num
                if not row:
                    continue
                if len(row) != 4:
                    raise TraceFormatError(f"line {lineno}: expected 4 fields, got {len(row)}")
                try:
                    t, x, y = float(row[0]), float(row[2]), float(row[3])
                    points.append(TracePoint(t, int(row[1]), x, y))
                except ValueError as exc:
                    raise TraceFormatError(f"line {lineno}: {exc}") from exc
                if not (isfinite(t) and isfinite(x) and isfinite(y)):
                    raise TraceFormatError(f"line {lineno}: non-finite time or coordinate {row!r}")
                v = points[-1].vehicle
                if not -(2**63) <= v < 2**63:
                    raise TraceFormatError(
                        f"line {lineno}: vehicle id {v} is not a signed 64-bit integer"
                    )
        except csv.Error as exc:  # a field over csv.field_size_limit(); a NUL before 3.11
            raise TraceFormatError(f"line {reader.line_num}: {exc}") from None
    if not points:
        raise TraceFormatError(f"{path}: no samples")
    return TraceOracle(points)


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


def direction_filtered_edges(snap, prev, radio) -> list[tuple[int, int]]:
    """The unit-disk edges whose ends head at most 45 degrees apart, or
    either of which is direction-neutral."""
    moves = displacements_at(snap, prev)

    def same_heading(i, j):
        wi, wj = moves.get(i), moves.get(j)
        if wi is None or wj is None or wi.is_neutral or wj.is_neutral:
            return True
        return direction_angle(wi, wj) <= 45.0

    return [e for e in udg_edges_oracle(snap, radio) if same_heading(*e)]


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


def breadth_first_order_oracle(g: SnapshotGraph) -> tuple[list[int], list[int], list[int]]:
    """Positions in the order a queue-based search visits them: each
    component from its lowest unvisited id, neighbours by ascending id.
    Also the index at which each depth of each component's search starts
    in that order, and then the number of vertices; and the same for
    each component's search."""
    position = {v: i for i, v in enumerate(g.vertices)}
    order: list[int] = []
    starts: list[int] = []
    components: list[int] = []
    seen: set[int] = set()
    for source in g.vertices:
        if source in seen:
            continue
        seen.add(source)
        components.append(len(order))
        queue = deque([(source, 0)])
        depth = -1
        while queue:
            v, d = queue.popleft()
            if d != depth:
                starts.append(len(order))
                depth = d
            order.append(position[v])
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    queue.append((u, d + 1))
    starts.append(len(order))
    components.append(len(order))
    return order, starts, components


def _nearest_points(balls: dict[int, dict[int, int]]) -> dict[int, int]:
    """Map each non-point vehicle in some point's ball to its closest point.

    balls maps each aggregation point to its {vehicle: hops} ball. Ties
    on hop distance break toward the lowest point id.
    """
    best: dict[int, tuple[int, int]] = {}
    for p, dist in balls.items():
        for v, hops in dist.items():
            if v in balls:
                continue
            key = (hops, p)
            if v not in best or key < best[v]:
                best[v] = key
    return {v: p for v, (_, p) in sorted(best.items())}


def assign_to_aggregation_points_oracle(
    g: SnapshotGraph, points: frozenset[int] | set[int], d: int
) -> dict[int, int]:
    """Map each covered non-point vehicle to its closest aggregation point.

    Ties on hop distance break toward the lowest point id. Vehicles
    farther than d hops from every point are left out.
    """
    return _nearest_points({p: bfs_distances(g, p, d)[0] for p in sorted(points)})


def spy_on_assignment(monkeypatch) -> list[tuple[str, int]]:
    """Record each call of ``assign_to_aggregation_points`` under every
    name an ``apsel`` module binds it to, as (calling module, d)."""
    original = apsel.selection.assign_to_aggregation_points
    calls = []

    def spy(g, points, d):
        calls.append((sys._getframe(1).f_globals["__name__"], d))
        return original(g, points, d)

    for name, module in list(sys.modules.items()):
        if name.startswith("apsel") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    return calls


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
        slots_simulated=ticks,
    )


def _closed_neighborhoods(
    g: SnapshotGraph, d: int
) -> tuple[dict[int, frozenset[int]], int]:
    examined = 0
    closed = {}
    for v in g.vertices:
        dist, scanned = bfs_distances(g, v, d)
        examined += scanned
        closed[v] = frozenset(dist)
    return closed, examined


def brute_force_min_dominating_set(
    g: SnapshotGraph, d: int = 1, max_vertices: int = 20
) -> frozenset[int]:
    """Smallest d-hop dominating set by exhaustive subset search.

    Checks subsets in increasing size, lexicographic order within a
    size, so returns a deterministic witness. Only usable on tiny
    graphs; exists to validate the branch-and-bound solver.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if g.n_vertices > max_vertices:
        raise GraphSizeError(
            f"graph has {g.n_vertices} vertices, brute force capped at {max_vertices}"
        )
    vertices = list(g.vertices)
    if not vertices:
        return frozenset()
    closed, _ = _closed_neighborhoods(g, d)
    everyone = set(vertices)
    for size in range(1, len(vertices) + 1):
        for combo in itertools.combinations(vertices, size):
            covered = set()
            for v in combo:
                covered |= closed[v]
            if covered == everyone:
                return frozenset(combo)
    raise AssertionError("full vertex set always dominates")  # pragma: no cover


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
        edges_examined=examined,
        search_nodes=nodes,
    )


def adjacency(g: SnapshotGraph) -> dict[int, tuple[int, ...]]:
    return {v: g.neighbors(v) for v in g.vertices}


class NelderMeadOracleResult(NamedTuple):
    """The oracle's record: ``apsel.tuner.NelderMeadResult``'s fields plus
    the iteration count, with each trajectory row led by its iteration."""

    point: tuple[float, ...]
    value: float
    iterations: int
    evaluations: int
    converged: bool
    trajectory: tuple[tuple[int, tuple[float, ...], float], ...]


def nelder_mead_oracle(
    objective, initial_simplex, max_iterations: int = 500, bounds=None
) -> NelderMeadOracleResult:
    """Minimize `objective` from the given (p+1)-point simplex.

    Candidate points (including the initial vertices) are clamped into
    `bounds` before evaluation, so the objective is never probed
    outside the box. Stops when the objective spread across the simplex
    stays below TOLERANCE for two consecutive simplex states (a flat
    initial simplex stops at once) or max_iterations is reached.
    The persistence requirement matters: a large simplex can land all
    its vertices on one contour of the objective for a single step, and
    stopping there would freeze the search far from any optimum. The
    trajectory records the incumbent best after every iteration, row 0
    being the initial best.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    simplex = [_clamp(tuple(float(v) for v in x), bounds) for x in initial_simplex]
    p = len(simplex[0])
    if len(simplex) != p + 1 or any(len(x) != p for x in simplex):
        raise ValueError(f"need {p + 1} points of dimension {p}")
    base = np.array(simplex[0])
    spread_matrix = np.array([np.array(x) - base for x in simplex[1:]])
    if np.linalg.matrix_rank(spread_matrix) < p:
        raise ValueError("degenerate initial simplex")

    evaluations = 0

    def f(x):
        nonlocal evaluations
        evaluations += 1
        return objective(x)

    pts = [(f(x), x) for x in simplex]
    pts.sort()
    trajectory = [(0, pts[0][1], pts[0][0])]

    iteration = 0
    prev_below = pts[-1][0] - pts[0][0] < TOLERANCE
    converged = prev_below
    while not converged and iteration < max_iterations:
        iteration += 1
        best_v, _ = pts[0]
        worst_v, worst_x = pts[-1]
        second_worst_v = pts[-2][0]
        centroid = np.mean([np.array(x) for _, x in pts[:-1]], axis=0)

        reflected = _clamp(centroid + REFLECTION * (centroid - np.array(worst_x)), bounds)
        fr = f(reflected)
        if best_v <= fr < second_worst_v:
            pts[-1] = (fr, reflected)
        elif fr < best_v:
            expanded = _clamp(centroid + EXPANSION * (centroid - np.array(worst_x)), bounds)
            fe = f(expanded)
            pts[-1] = (fe, expanded) if fe < fr else (fr, reflected)
        else:
            if fr < worst_v:  # outside: contract toward the reflected point
                contracted = _clamp(centroid + CONTRACTION * (np.array(reflected) - centroid), bounds)
                fc = f(contracted)
                accept = fc <= fr
            else:  # inside: contract toward the worst point
                contracted = _clamp(centroid - CONTRACTION * (centroid - np.array(worst_x)), bounds)
                fc = f(contracted)
                accept = fc < worst_v
            if accept:
                pts[-1] = (fc, contracted)
            else:
                best_x = np.array(pts[0][1])
                shrunk = [pts[0]]
                for _, x in pts[1:]:
                    nx = _clamp(best_x + SHRINK * (np.array(x) - best_x), bounds)
                    shrunk.append((f(nx), nx))
                pts = shrunk
        pts.sort()
        trajectory.append((iteration, pts[0][1], pts[0][0]))
        below = pts[-1][0] - pts[0][0] < TOLERANCE
        converged = below and prev_below
        prev_below = below

    return NelderMeadOracleResult(
        point=pts[0][1],
        value=pts[0][0],
        iterations=iteration,
        evaluations=evaluations,
        converged=converged,
        trajectory=tuple(trajectory),
    )


def reference_period_graphs(trace: Trace, cfg, direction: bool = False):
    """(boundary, graph or None) for every delivery period of cfg on trace,
    by the README's rules read straight from the samples: boundary i is
    start + i * period, or the sampled instant within a millionth of a
    sampling period (the median gap, the lower middle one) plus four ulps
    of it, where start and the window end are themselves rounded so; a
    direction-filtered graph takes each vehicle's heading from
    its latest sample no more than one sampling period back. Graphs come
    from ``udg_edges_oracle`` and ``direction_filtered_edges``; a boundary that
    reads no sample has None."""
    by_time: dict[float, dict[int, tuple[float, float]]] = {}
    for p in trace_samples(trace):
        by_time.setdefault(p.time, {})[p.vehicle] = (p.x, p.y)
    times = sorted(by_time)
    gaps = [b - a for a, b in zip(times, times[1:])]
    sampling = statistics.median_low(gaps) if gaps else 1.0

    def slack(t):
        return 1e-6 * sampling + 4 * math.ulp(t)

    def rounded(t):
        nearest = min(times, key=lambda s: abs(s - t))
        return nearest if abs(nearest - t) <= slack(t) else t

    start = rounded(times[0] if cfg.t_start is None else cfg.t_start)
    end = rounded(times[-1] if cfg.t_end is None else cfg.t_end)
    for i in itertools.count():
        t = rounded(start + i * cfg.period)
        if t > end + slack(end):
            return
        snap = by_time.get(t)
        if snap is None:
            yield t, None
            continue
        edges = udg_edges_oracle(snap, cfg.radio)
        if direction:
            prev = {}
            for s in times:
                if s < t and t - s <= sampling + slack(t):
                    prev.update(by_time[s])
            edges = direction_filtered_edges(snap, prev, cfg.radio)
        yield t, SnapshotGraph(sorted(snap), edges)


def reference_run(trace: Trace, cfg) -> dict[str, list]:
    """Each algorithm's ``PeriodMetrics`` rows for ``run`` or ``compare``
    with RunConfig cfg on trace, keyed by output tag, from the oracles
    alone: ``reference_period_graphs``, then ``centrality_select_oracle``,
    ``rb_select_with_slots_oracle`` with slots drawn in ascending id from
    the README's per-period seed (seed * 1,000,003 + i) mod 2**63, or
    ``exact_min_dominating_set_oracle``, and
    ``assign_to_aggregation_points_oracle`` at d hops (1 for rb)."""
    runs = {}
    for algo in cfg.algos:
        rows = []
        prev_points, prev_assignment = frozenset(), {}
        periods = reference_period_graphs(trace, cfg, algo.direction)
        for i, (t, g) in enumerate(periods):
            if g is None:
                g, result = SnapshotGraph([]), SelectionResult(frozenset())
            elif algo.name == "centrality":
                result = centrality_select_oracle(g, algo.d, algo.k)
            elif algo.name == "rb":
                rng = random.Random((cfg.seed * 1_000_003 + i) % 2**63)
                slots = {v: rng.randrange(algo.slots) for v in sorted(g.vertices)}
                result = rb_select_with_slots_oracle(g, slots, algo.slots)
            else:
                result = exact_min_dominating_set_oracle(g, algo.d)
            points = result.aggregation_points
            hops = 1 if algo.name == "rb" else algo.d
            assignment = assign_to_aggregation_points_oracle(g, points, hops)
            n = g.n_vertices
            rows.append(
                PeriodMetrics(
                    time=t,
                    n_vehicles=n,
                    n_edges=len(list(g.edges())),
                    n_aps=len(points),
                    aggregation_rate=1.0 - len(points) / n if n else None,
                    upload_cost_bps=len(points) * PACKET_SIZE_BYTES / cfg.period,
                    edges_examined=result.edges_examined,
                    n_notifications=len(prev_points ^ points),
                    n_routing_updates=sum(
                        prev_assignment.get(v) != p for v, p in assignment.items()
                    ),
                    n_reelections=len(prev_points & points),
                )
            )
            prev_points, prev_assignment = points, assignment
        runs[algo.tag] = rows
    return runs

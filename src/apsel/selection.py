"""Selecting aggregation points on a communication-graph snapshot.

Three selectors share one contract: given a snapshot, return a set of
aggregation points such that every vehicle is an aggregation point or
within d hops of one, together with an assignment of the remaining
vehicles to their nearest point.

* ``centrality_select`` ranks vehicles by hop-limited closeness and
  greedily picks maximizers, deleting each winner's d-hop neighborhood.
* ``rb_select`` simulates the distributed slotted-reservation handshake
  in which vehicles pick random transmission slots and collisions keep
  contenders in the race.
* ``exact_min_dominating_set`` finds a true minimum via set-cover
  branch and bound; ``brute_force_min_dominating_set`` is the tiny-n
  reference used to validate it.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field

from .graph import SnapshotGraph, UnknownVehicleError, all_k_closeness, bfs_distances

__all__ = [
    "GraphSizeError",
    "SelectionResult",
    "assign_to_aggregation_points",
    "brute_force_min_dominating_set",
    "centrality_select",
    "exact_min_dominating_set",
    "rb_select",
    "rb_select_with_slots",
    "verify_domination",
]


class GraphSizeError(ValueError):
    """Raised when an exponential-time routine is asked for too large a graph."""


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection round.

    assignment maps each non-aggregation-point vehicle to the point it
    reports to; vehicles with no reachable point within d hops are
    absent. edges_examined counts adjacency entries scanned while
    computing whatever the selector needed (0 for the slotted draw,
    which does no graph search). slots_simulated is the number of
    reservation ticks processed (0 for the non-slotted selectors).
    """

    aggregation_points: frozenset[int]
    assignment: dict[int, int] = field(default_factory=dict)
    edges_examined: int = 0
    slots_simulated: int = 0


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


def assign_to_aggregation_points(
    g: SnapshotGraph, points: frozenset[int] | set[int], d: int
) -> dict[int, int]:
    """Map each covered non-point vehicle to its closest aggregation point.

    Ties on hop distance break toward the lowest point id. Vehicles
    farther than d hops from every point are left out.
    """
    return _nearest_points({p: bfs_distances(g, p, d)[0] for p in sorted(points)})


def verify_domination(g: SnapshotGraph, points, d: int) -> bool:
    """True iff every vehicle is in `points` or within d hops of one."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    points = set(points)
    for p in points:
        if p not in g:
            raise UnknownVehicleError(p)
    if not g.n_vertices:
        return True
    if not points:
        return False
    # multi-source BFS out to depth d
    seen = dict.fromkeys(points, 0)
    queue = deque(points)
    while queue:
        u = queue.popleft()
        if seen[u] == d:
            continue
        for w in g.neighbors(u):
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    return len(seen) == g.n_vertices


def centrality_select(g: SnapshotGraph, d: int = 1, k: int = 4) -> SelectionResult:
    """Greedy selection by hop-limited closeness.

    Centrality is computed once on the full snapshot. Each round the
    highest-centrality remaining vehicle (lowest id on ties) becomes an
    aggregation point and its d-hop neighborhood in the original graph
    leaves the pool. Scores are never recomputed on the residual graph;
    the one-shot ranking is the whole point of the method's cost profile.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    centrality, examined = all_k_closeness(g, k)
    # scores never change, so the best remaining vehicle is always the
    # first uncovered one in a single (score desc, id asc) ranking
    covered: set[int] = set()
    balls: dict[int, dict[int, int]] = {}
    for v in sorted(g.vertices, key=lambda u: (-centrality[u], u)):
        if v not in covered:
            balls[v] = bfs_distances(g, v, d)[0]
            covered.update(balls[v])
    # each point lies outside every other point's ball, so these balls
    # are exactly the searches assign_to_aggregation_points would repeat
    return SelectionResult(
        aggregation_points=frozenset(balls),
        assignment=_nearest_points(balls),
        edges_examined=examined,
    )


def rb_select_with_slots(
    g: SnapshotGraph, slots: dict[int, int], frame_length: int
) -> SelectionResult:
    """Run the reservation frame with externally fixed slot choices.

    Each tick, contenders whose slot is up transmit and become
    aggregation points. A contender that hears exactly one transmission
    from its 1-hop neighbors is dominated and drops out; two or more
    simultaneous transmissions collide and the listener stays in the
    race. Exposed separately so tests can force slot assignments.
    """
    if frame_length < 1:
        raise ValueError(f"frame_length must be >= 1, got {frame_length}")
    for v in g.vertices:
        if v not in slots:
            raise ValueError(f"no slot assigned to vehicle {v}")
    for v, s in slots.items():
        if not 0 <= s < frame_length:
            raise ValueError(f"slot {s} for vehicle {v} outside [0, {frame_length})")

    # only occupied slots do anything; the frame ends at the tick after
    # the last contender decides (every contender decides by its own slot)
    by_slot: dict[int, list[int]] = {}
    for v in g.vertices:
        by_slot.setdefault(slots[v], []).append(v)
    contenders = set(g.vertices)
    points: set[int] = set()
    ticks = 0
    for s in sorted(by_slot):
        if not contenders:
            break
        ticks = s + 1
        transmitters = [v for v in by_slot[s] if v in contenders]
        if not transmitters:
            continue
        points.update(transmitters)
        contenders.difference_update(transmitters)
        heard: dict[int, int] = {}
        for u in transmitters:
            for v in g.neighbors(u):
                heard[v] = heard.get(v, 0) + 1
        contenders.difference_update(v for v, times in heard.items() if times == 1)
    chosen = frozenset(points)
    return SelectionResult(
        aggregation_points=chosen,
        assignment=assign_to_aggregation_points(g, chosen, 1),
        slots_simulated=ticks,
    )


def rb_select(g: SnapshotGraph, slots: int = 256, seed: int = 0) -> SelectionResult:
    """Random-slot reservation selection over a frame of `slots` ticks.

    Every vehicle draws a slot uniformly at random; the draw order is
    ascending vehicle id so a fixed seed reproduces the frame exactly.
    Domination here is always 1-hop: a vehicle is covered only by a
    direct neighbor it actually heard.
    """
    rng = random.Random(seed)
    assigned = {v: rng.randrange(slots) for v in g.vertices}
    return rb_select_with_slots(g, assigned, slots)


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


def exact_min_dominating_set(
    g: SnapshotGraph, d: int = 1, max_vertices: int = 200
) -> SelectionResult:
    """Minimum d-hop dominating set via set-cover branch and bound.

    Branches on the uncovered vertex with the fewest potential coverers,
    prunes with a disjoint-neighborhood packing bound, and starts from
    the greedy cover as incumbent. Worst case is exponential, hence the
    max_vertices guard.
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

    def branch(chosen: list[int], uncovered: set[int]):
        nonlocal best
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
    )


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

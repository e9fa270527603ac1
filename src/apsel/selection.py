"""Selecting aggregation points on a communication-graph snapshot.

Three selectors share one contract: given a snapshot, return a set of
aggregation points such that every vehicle is an aggregation point or
within d hops of one. They make no assignment of the other vehicles to
points, so a caller that reads only the points, such as the tuner, pays
for none; ``assign_to_aggregation_points`` makes it for all three by one
rule: fewest hops first, then the lowest point id.

* ``centrality_select`` ranks vehicles by hop-limited closeness and
  greedily picks maximizers, deleting each winner's d-hop neighborhood.
* ``rb_select`` simulates the distributed slotted-reservation handshake
  in which vehicles pick random transmission slots and collisions keep
  contenders in the race.
* ``exact_min_dominating_set`` finds a true minimum via set-cover
  branch and bound, one connected component at a time.
"""

from __future__ import annotations

import random
from collections import deque
from typing import NamedTuple

from .graph import (
    SnapshotGraph,
    UnknownVehicleError,
    all_k_closeness,
    breadth_first_order,
    edges_examined,
    position_of,
    reach_rounds,
)

__all__ = [
    "GraphSizeError",
    "SelectionResult",
    "assign_to_aggregation_points",
    "centrality_select",
    "exact_min_dominating_set",
    "rb_select",
    "rb_select_with_slots",
    "verify_domination",
]


# The most vertices exact_min_dominating_set accepts, counted over the whole graph.
MAX_EXACT_VERTICES = 200


class GraphSizeError(ValueError):
    """Raised when an exponential-time routine is asked for too large a graph."""


class SelectionResult(NamedTuple):
    """The points one selection round chose, and its work counters.

    It holds no vehicle-to-point assignment; ``assign_to_aggregation_points``
    makes one from the points. edges_examined counts adjacency entries
    scanned while computing whatever the selector needed (0 for the
    slotted draw, which does no graph search). slots_simulated is the
    number of reservation ticks processed (0 for the non-slotted
    selectors). search_nodes is the number of branch-and-bound nodes the
    exact solver visited: the sum over its per-component searches, each
    root and each re-search for the witness included (0 for the other
    selectors).
    """

    aggregation_points: frozenset[int]
    edges_examined: int = 0
    slots_simulated: int = 0
    search_nodes: int = 0


def assign_to_aggregation_points(
    g: SnapshotGraph, points: frozenset[int] | set[int], d: int
) -> dict[int, int]:
    """Map each covered non-point vehicle to its closest aggregation point.

    Ties on hop distance break toward the lowest point id, and vehicles
    farther than d hops from every point are left out; the result is in
    ascending vehicle id.

    One breadth-first search runs from all points at once, for at most d
    rounds, and labels every vehicle it reaches with a point (Erwig's
    graph Voronoi diagram): a vehicle first reached in round h takes the
    lowest label among its neighbours reached in round h-1. That label is
    the lowest id among the vehicle's closest points, by induction on h:
    a closest point of w at h hops lies h-1 hops from some neighbour of w
    that was reached in round h-1, and every closest point of such a
    neighbour is h hops from w, so w's closest points are exactly the
    union of those neighbours' closest points.

    The search runs on positions, which follow ascending id. Its frontier
    stays in ascending label order: the points start in ascending order,
    and each round lists the vehicles it reaches in the order of the
    frontier vehicles that reached them. So the first label to reach a
    vehicle is the lowest among its neighbours in the previous round.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    vertices = g.vertices
    adjacency = g.adjacency
    frontier = []
    for p in points:
        i = position_of(vertices, p)
        if i < 0:
            raise UnknownVehicleError(p)
        frontier.append(i)
    frontier.sort()
    # label[i]: the position of vertex i's point, -1 while unreached
    label = [-1] * len(vertices)
    for i in frontier:
        label[i] = i
    for _ in range(d):
        reached = []
        for u in frontier:
            p = label[u]
            for w in adjacency[u]:
                if label[w] < 0:
                    label[w] = p
                    reached.append(w)
        if not reached:  # so a d past the graph's diameter costs no more than the diameter
            break
        frontier = reached
    return {vertices[i]: vertices[p] for i, p in enumerate(label) if p >= 0 and p != i}


def verify_domination(g: SnapshotGraph, points, d: int) -> bool:
    """True iff every vehicle is in `points` or within d hops of one."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    points = set(points)
    for p in points:
        if p not in g:
            raise UnknownVehicleError(p)
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


def centrality_select(g: SnapshotGraph, d: int, k: int) -> SelectionResult:
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
    # first uncovered one in a single (score desc, id asc) ranking; the
    # values come in position order and the sort is stable
    scores = list(centrality.values())
    adjacency = g.adjacency
    covered = [False] * len(scores)
    # seen[j]: the last point whose search reached vertex j
    seen = [-1] * len(scores)
    points = []
    for i in sorted(range(len(scores)), key=scores.__getitem__, reverse=True):
        if covered[i]:
            continue
        points.append(i)
        covered[i] = True
        seen[i] = i
        frontier = [i]
        for _ in range(d):
            reached = []
            for u in frontier:
                for j in adjacency[u]:
                    if seen[j] != i:
                        seen[j] = i
                        covered[j] = True
                        reached.append(j)
            if not reached:  # so a d past the graph's diameter costs no more than the diameter
                break
            frontier = reached
    chosen = frozenset(g.vertices[i] for i in points)
    return SelectionResult(chosen, edges_examined=examined)


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
    vertices = g.vertices
    # only occupied slots do anything; the frame ends at the tick after
    # the last contender decides (every contender decides by its own slot)
    by_slot: dict[int, list[int]] = {}
    for i, v in enumerate(vertices):
        if v not in slots:
            raise ValueError(f"no slot assigned to vehicle {v}")
        by_slot.setdefault(slots[v], []).append(i)
    for v, s in slots.items():
        if not 0 <= s < frame_length:
            raise ValueError(f"slot {s} for vehicle {v} outside [0, {frame_length})")

    adjacency = g.adjacency
    contenders = set(range(len(vertices)))
    points: list[int] = []
    ticks = 0
    for s in sorted(by_slot):
        if not contenders:
            break
        ticks = s + 1
        transmitters = [i for i in by_slot[s] if i in contenders]
        points += transmitters
        contenders.difference_update(transmitters)
        heard: dict[int, int] = {}
        for u in transmitters:
            for j in adjacency[u]:
                heard[j] = heard.get(j, 0) + 1
        contenders.difference_update(j for j, times in heard.items() if times == 1)
    chosen = frozenset(map(vertices.__getitem__, points))
    return SelectionResult(chosen, slots_simulated=ticks)


def rb_select(g: SnapshotGraph, slots: int, seed: int) -> SelectionResult:
    """Random-slot reservation selection over a frame of `slots` ticks.

    Every vehicle draws a slot uniformly at random; the draw order is
    ascending vehicle id so a fixed seed reproduces the frame exactly.
    Domination here is always 1-hop: a vehicle is covered only by a
    direct neighbor it actually heard.
    """
    rng = random.Random(seed)
    assigned = {v: rng.randrange(slots) for v in g.vertices}
    return rb_select_with_slots(g, assigned, slots)


def _greedy_cover(balls: list[int], component: int, members: list[int]) -> list[int]:
    """Cover a component greedily: the largest gain, lowest id on ties."""
    best: list[int] = []
    uncovered = component
    candidates = members
    while uncovered:
        gains = [(balls[i] & uncovered).bit_count() for i in candidates]
        top = candidates[gains.index(max(gains))]
        best.append(top)
        uncovered &= ~balls[top]
        candidates = [i for i, gain in zip(candidates, gains) if gain]
    return best


def _search(
    balls: list[int], order: list[int], component: int, bound: int
) -> tuple[list[int] | None, int]:
    """Branch and bound for a cover of one component smaller than ``bound``.

    Returns the last cover that beat the bound, or None if none did, and
    the number of nodes visited. ``order`` lists the component's
    vertices by (ball size, id).
    """
    best = None
    nodes = 0

    def branch(chosen: list[int], uncovered: int):
        nonlocal best, bound, nodes
        nodes += 1
        if not uncovered:
            if len(chosen) < bound:
                best = list(chosen)
                bound = len(best)
            return
        # every point set needs one point per uncovered vertex whose ball
        # meets no other packed ball; prune once that reaches the incumbent
        room = bound - len(chosen)
        pivot = -1
        packed = blocked = 0
        for i in order:
            if uncovered >> i & 1 and not balls[i] & blocked:
                if pivot < 0:
                    pivot = i
                packed += 1
                if packed >= room:
                    return
                blocked |= balls[i]
        coverers = balls[pivot]
        while coverers:
            low = coverers & -coverers
            u = low.bit_length() - 1
            chosen.append(u)
            branch(chosen, uncovered & ~balls[u])
            chosen.pop()
            coverers ^= low

    branch([], component)
    # branch reaches itself through its closure cell; breaking that cycle
    # frees it now rather than at the next cyclic collection
    del branch
    return best, nodes


def exact_min_dominating_set(g: SnapshotGraph, d: int) -> SelectionResult:
    """Minimum d-hop dominating set via set-cover branch and bound.

    Each connected component, as ``breadth_first_order`` finds it, is
    solved on its own. Its search branches on the uncovered vertex with
    the fewest potential coverers, prunes with a disjoint-neighborhood
    packing bound, and starts from the component's greedy cover as
    incumbent. Vertex sets are int bitsets over positions in
    ``g.vertices``, so bit order is id order. Worst case is exponential in
    the largest component, hence the MAX_EXACT_VERTICES guard, which still
    counts the whole graph.

    The witness is the one a single search over the whole graph returns.
    If every component's greedy cover is optimal, it is the union of the
    greedy covers. Otherwise each component contributes its first
    minimum cover in branch order, which takes one more search, bounded
    by greedy size + 1, for each component whose greedy cover already is
    optimal and has two or more points (a one-point cover is the lowest
    id whose ball holds the whole component either way). This holds
    because components do not interact: the whole-graph branch order
    restricted to one component is that component's own order, and a
    valid lower bound never prunes the first minimum cover while the
    incumbent is larger, so once any component improves on greedy the
    whole-graph search ends on the first minimum cover of every
    component.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if g.n_vertices > MAX_EXACT_VERTICES:
        raise GraphSizeError(
            f"graph has {g.n_vertices} vertices, exact solver capped at {MAX_EXACT_VERTICES}"
        )
    rounds = list(reach_rounds(g.adjacency, d))
    last = len(rounds) - 1
    # hop distance is symmetric, so a vertex's d-hop ball is also the set
    # of vertices whose ball covers it: its coverers
    balls, ball_sizes = rounds[min(d, last)]
    nodes = 0
    covers = []
    searched = []  # (position in covers, component, order, improved)
    bfs, _, starts = breadth_first_order(g.adjacency)
    for lo, hi in zip(starts, starts[1:]):
        top = bfs[lo]  # the lowest position, greedy's pick if its ball is the whole component
        if ball_sizes[top] < hi - lo:
            members = sorted(bfs[lo:hi])
            top = max(members, key=ball_sizes.__getitem__)
        if ball_sizes[top] == hi - lo:
            # greedy takes the lowest id whose ball is the whole component,
            # and the search's root packs one ball against one point; skipping
            # both takes 1000 sparse 36-vehicle snapshots at d=1 and d=2 from
            # 194 to 115 ms (2-vCPU VM, CPython 3.11)
            covers.append([top])
            nodes += 1
            continue
        component = sum(map((1).__lshift__, members))  # distinct bits: their sum is their union
        greedy = _greedy_cover(balls, component, members)
        # the uncovered vertex with the fewest coverers is the first
        # uncovered one in (ball size, id) order, which is also the
        # packing bound's greedy order
        order = sorted(members, key=ball_sizes.__getitem__)
        cover, count = _search(balls, order, component, len(greedy))
        nodes += count
        searched.append((len(covers), component, order, cover is not None))
        covers.append(cover or greedy)
    if any(improved for *_, improved in searched):
        for c, component, order, improved in searched:
            if not improved:
                # greedy is optimal here: search again for the first
                # minimum cover in branch order
                covers[c], count = _search(balls, order, component, len(covers[c]) + 1)
                nodes += count
    chosen = frozenset(g.vertices[i] for cover in covers for i in cover)
    return SelectionResult(
        aggregation_points=chosen,
        edges_examined=edges_examined(g, rounds[min(d - 1, last)][1]),
        search_nodes=nodes,
    )

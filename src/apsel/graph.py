"""Immutable communication-graph snapshots and hop-limited closeness centrality.

A snapshot is an undirected graph over the vehicles that were in direct
radio range of each other at one instant. Hop distances come from
breadth-first search with a depth cutoff, and every search reports how many
adjacency entries it scanned so callers can account for computational cost.

Every graph also numbers its vertices by position: vertex i is
``g.vertices[i]``, the i-th smallest id, and ``g.adjacency[i]`` lists the
positions of its neighbours, ascending. The builders produce this
numbering and the kernels (closeness, selection) read it, so no kernel
maps ids to positions itself. It is the only adjacency a graph stores:
ids appear only where a caller passes one in or gets one back, and
``position_of`` maps an id to its position. On large graphs closeness
numbers the bits of its reach sets breadth-first and scores the vertices
level by level, while the sets stay indexed by position, so the ball
sizes come out by position.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from operator import mul


class UnknownVehicleError(KeyError):
    """An operation named a vehicle id that is not in the snapshot."""

    def __init__(self, vehicle: int):
        super().__init__(vehicle)
        self.vehicle = vehicle

    def __str__(self) -> str:
        return f"unknown vehicle id {self.vehicle}"


def position_of(ids: Sequence[int], v) -> int:
    """The index of ``v`` in the ascending ``ids``, or -1 if ``v`` is not
    one of them, including a key that no id compares with."""
    try:
        i = bisect_left(ids, v)
    except TypeError:
        return -1
    return i if i < len(ids) and ids[i] == v else -1


def vertex_ids(given: Iterable) -> list[int]:
    """Each vehicle id as an int. Raises ValueError for an id that is not
    equal to an integer: int() would fold 0.5 and 0.7 into one vehicle 0,
    and '3' into 3. Positions are id ranks, so any integer, of either
    sign, is an id."""
    ids = []
    for v in given:
        try:
            i = int(v)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != v:
            raise ValueError(f"vehicle ids must be integers, got {v!r}")
        ids.append(i)
    return ids


class Frozen:
    """Base of the package's validated settings (``RadioParams``,
    ``TunerConfig`` and the command line's configs). Each ``__init__``
    sets its fields (the ``__slots__`` of its class and bases) once,
    through ``_set``, and checks them; assigning or deleting a field later
    raises AttributeError, so no setting skips those checks, changes its
    hash or alters a shared default. Settings of one class with equal
    fields are equal, hash alike and print alike."""

    __slots__ = ()

    @classmethod
    def _field_names(cls) -> tuple[str, ...]:
        return tuple(name for c in cls.__mro__ for name in getattr(c, "__slots__", ()))

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names())

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._field_names(), self._key()))
        return f"{type(self).__name__}({fields})"

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the fields here
        self._set(**state[1])


class SnapshotGraph:
    """Undirected vehicle graph at one instant, immutable after construction.

    ``adjacency[i]`` lists the positions of vertex i's neighbours,
    ascending, and the id views (``neighbors``, ``in``, ``has_edge``,
    ``edges``) are read from it, so iteration order, and any tie-breaking
    that depends on it downstream, is deterministic. Self-loops are
    rejected; duplicate edges collapse to one.

    The vertices and edges never change. The graph only memoizes derived
    hop-ball sizes for ``all_k_closeness``, so that scoring it again runs
    no further search; the sizes are kept, never the reach sets, and the
    memo dies with the graph.
    """

    __slots__ = ("_adjacency", "_vertices", "_ball_sizes", "_balls_converged")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {v: set() for v in vertex_ids(vertices)}
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop on vehicle {i}")
            if i not in adj:
                raise UnknownVehicleError(i)
            if j not in adj:
                raise UnknownVehicleError(j)
            adj[i].add(j)
            adj[j].add(i)
        vertices = tuple(sorted(adj))
        adjacency = (sorted([position_of(vertices, u) for u in adj[v]]) for v in vertices)
        self._store(vertices, tuple(map(tuple, adjacency)))

    @classmethod
    def _from_sorted_adjacency(
        cls, vertices: tuple[int, ...], adjacency: tuple[tuple[int, ...], ...]
    ) -> SnapshotGraph:
        """Wrap a position-numbered adjacency the caller has already
        validated, unchecked.

        ``vertices`` must be distinct int ids in ascending order, and
        ``adjacency[i]`` an ascending tuple of the positions of vertex i's
        neighbours, every edge listed from both ends.
        """
        g = cls.__new__(cls)
        g._store(vertices, adjacency)
        return g

    def _store(self, vertices, adjacency) -> None:
        self._vertices: tuple[int, ...] = vertices
        self._adjacency: tuple[tuple[int, ...], ...] = adjacency
        # _ball_sizes[h][i]: vertices within h hops of vertex i, h = 0, 1, ...
        # once _balls_converged, its last round repeats for every larger h
        self._ball_sizes: list[list[int]] = []
        self._balls_converged = False

    @property
    def vertices(self) -> tuple[int, ...]:
        """All vehicle ids, ascending."""
        return self._vertices

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Entry i: the positions in ``vertices`` of vertex i's neighbours, ascending."""
        return self._adjacency

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        """Undirected edges: each is listed from both ends of ``adjacency``."""
        return sum(map(len, self._adjacency)) // 2

    def _row(self, v: int) -> tuple[int, ...]:
        i = position_of(self._vertices, v)
        if i < 0:
            raise UnknownVehicleError(v)
        return self._adjacency[i]

    def __contains__(self, v: int) -> bool:
        return position_of(self._vertices, v) >= 0

    def __len__(self) -> int:
        return len(self._vertices)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Direct (1-hop) neighbors of ``v``, ascending."""
        vertices = self._vertices
        return tuple([vertices[j] for j in self._row(v)])

    def degree(self, v: int) -> int:
        return len(self._row(v))

    def has_edge(self, i: int, j: int) -> bool:
        a = position_of(self._vertices, i)
        return a >= 0 and position_of(self._vertices, j) in self._adjacency[a]  # -1 is in no row

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (i, j) with i < j, in sorted order."""
        vertices = self._vertices
        for a, (v, row) in enumerate(zip(vertices, self._adjacency)):
            for b in row:
                if a < b:
                    yield (v, vertices[b])

    def __repr__(self) -> str:
        return f"SnapshotGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def reach_rounds(
    adjacency: Sequence[Sequence[int]], k: int
) -> Iterator[tuple[list[int], list[int]]]:
    """Bit-parallel BFS from every vertex at once, one round per hop.

    ``adjacency[i]`` lists the numbers of vertex i's neighbours, as
    ``g.adjacency`` does by position. Yields ``(reach, sizes)`` for
    h = 0, 1, ..., k: bit j of ``reach[i]`` is set iff vertex j lies
    within h hops of vertex i, and ``sizes[i]`` counts those bits. Round h
    ORs each vertex's set with its neighbors' sets (Then et al., VLDB
    2014). Once a round adds nothing, every later round would repeat it,
    so the rounds stop there: when fewer than k + 1 come, the last one
    also holds for every larger h.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    reach = [1 << i for i in range(len(adjacency))]
    sizes = [1] * len(adjacency)
    yield reach, sizes
    for _ in range(k):
        grown = []
        for i, nb in enumerate(adjacency):
            acc = reach[i]
            for u in nb:
                acc |= reach[u]
            grown.append(acc)
        grown_sizes = [r.bit_count() for r in grown]
        if grown_sizes == sizes:
            return
        reach, sizes = grown, grown_sizes
        yield reach, sizes


def breadth_first_order(adjacency: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """Every vertex once, in breadth-first order (Cuthill & McKee, 1969),
    and where each BFS level and each connected component starts in it.

    Each component is searched from its lowest number, in ascending order
    of that number, and each vertex's neighbours are taken in ascending
    order. ``starts`` lists the index in ``order`` at which each level
    begins, component after component, and then ``len(order)``: level j
    is ``order[starts[j]:starts[j + 1]]``. Adjacent vertices land at most
    one level apart, so a k-hop ball spans at most 2k + 1 consecutive
    levels of the order. ``components`` lists where each component
    begins in the same way: its first vertex is its lowest number.
    """
    seen = bytearray(len(adjacency))
    order: list[int] = []
    starts: list[int] = []
    components: list[int] = []
    for source in range(len(adjacency)):
        if seen[source]:
            continue
        seen[source] = 1
        level = len(order)
        components.append(level)
        order.append(source)
        while level < len(order):
            starts.append(level)
            end = len(order)
            for v in order[level:end]:
                for u in adjacency[v]:
                    if not seen[u]:
                        seen[u] = 1
                        order.append(u)
            level = end
    starts.append(len(order))
    components.append(len(order))
    return order, starts, components


def level_rounds(adjacency: Sequence[Sequence[int]], k: int) -> Iterator[list[int]]:
    """The sizes ``reach_rounds`` yields, from one generation of reach sets.

    Yields ``sizes`` for h = 0, 1, ..., k, indexed like ``adjacency``,
    and stops where ``reach_rounds`` stops. The sets are indexed like
    ``adjacency`` too, but bit r of a set stands for the vertex of rank r
    in ``breadth_first_order``. Python ints are dense, so a set costs its
    highest bit to OR and its whole width to count. In this numbering an
    h-hop ball about a vertex of BFS level j ends near the vertex's own
    rank instead of near n, and it holds no bit below the start of level
    j - h, so its size is counted from there. Each round scores the
    vertices level by level. A vertex reads only the sets of its own
    level and of the two next to it, so a level's new sets replace its
    old ones once the level after it is scored: one generation and the
    new sets of at most two levels are alive at a time.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order, starts, _ = breadth_first_order(adjacency)
    reach = [0] * len(order)
    for rank, v in enumerate(order):
        reach[v] = 1 << rank
    sizes = [1] * len(order)
    yield sizes
    # the empty level at the end writes back the last real one
    levels = [order[lo:hi] for lo, hi in zip(starts, starts[1:])] + [[]]
    for h in range(1, k + 1):
        grown_sizes = [0] * len(order)
        held: list[int] = []
        held_sets: list[int] = []
        low = 0
        for j, level in enumerate(levels):
            grown = []
            for v in level:
                acc = reach[v]
                for u in adjacency[v]:
                    acc |= reach[u]
                grown.append(acc)
            for v, acc in zip(held, held_sets):
                reach[v] = acc
                # the shift takes level_rounds(k=4) from 17.0 to 15.7 ms at 4000
                # vehicles and 268 to 241 ms at 20k (city_rows; 2-vCPU VM, CPython 3.11)
                grown_sizes[v] = (acc >> low).bit_count()
            held, held_sets = level, grown
            low = starts[max(j - h, 0)]
        if grown_sizes == sizes:
            return
        sizes = grown_sizes
        yield sizes


def edges_examined(g: SnapshotGraph, sizes: list[int]) -> int:
    """Adjacency entries scanned by one depth-limited search per vertex.

    ``sizes`` holds |R_{k-1}(u)| for each vertex u by position, from
    ``reach_rounds``. A search from s cut off at k hops scans the
    adjacency of each u with d(s, u) < k, and hop distance is symmetric,
    so the total is the sum over u of deg(u) * |R_{k-1}(u)|.
    """
    return sum(map(mul, map(len, g.adjacency), sizes))


# all_k_closeness takes level_rounds when n * min(k, 2) reaches this, and
# reach_rounds in position order below it. Python ints are dense, so reach
# set i costs about its highest bit / 30 digits to OR: in position order
# that is n bits for nearly every vertex, in breadth-first order about i
# plus the width of a few BFS levels. The O(n + E) search and the level
# write-back pay for themselves only on larger graphs, and past k = 2 the
# break-even barely moves. all_k_closeness time on a fresh graph, level
# kernel over position order, 2-D uniform snapshots at mean degree 10
# (bench/workloads.city_rows, seed 0), median CPU of 15 alternating calls,
# range over two to four passes (2-vCPU VM, CPython 3.11):
#
#   k = 1:  n = 2750 1.14       3000 0.99-1.03  3500 0.92-0.96  4000 0.94-0.95  5000 0.86
#   k = 2:  n = 1500 1.08-1.14  1750 1.03-1.13  2000 1.02-1.04  2250 1.00-1.01  2500 0.89-0.90
#   k = 3:  n = 1500 1.06-1.09  1750 1.04-1.05  2000 0.99-1.07  2250 0.95-0.96  2500 0.87-0.89
#   k = 4:  n = 1500 1.05-1.07  1750 1.01-1.05  2000 0.95-0.99  2250 0.93-0.95  2500 0.82-0.87
#   k = 8:  n = 1500 1.07-1.09  1750 1.02-1.23  2000 1.00-1.05  2250 0.91-0.99  2500 0.93-0.95
#
# At 4000 every row on the level side reads at most 1.07, and every row
# left in position order at least 0.92.
RENUMBER_MIN_WORK = 4_000


def all_k_closeness(g: SnapshotGraph, k: int) -> tuple[dict[int, float], int]:
    """k-limited closeness for every vertex, plus total edges examined.

    The bits that first appear in round h of ``reach_rounds`` are the
    vertices at exactly h hops, so farness is the sum of h times their
    count. The values equal k independent depth-limited searches, one per
    vertex, and the edge count is the work those searches would do, which
    feeds the computational-cost metric.

    When ``g.n_vertices * min(k, 2)`` is at least ``RENUMBER_MIN_WORK``, the
    sizes come from ``level_rounds``, which numbers the bits breadth-first
    and keeps one generation of reach sets; below it, from
    ``reach_rounds`` in position order. Both give the sizes by position,
    and ball sizes do not depend on the numbering, so neither does any
    result.

    The per-round sizes are memoized on ``g``: a call whose k the memo
    already covers runs no search, and a larger k reruns the rounds from
    round 0 and replaces the memo. Only distinct rounds are kept: the
    rounds stop at the first one that adds nothing, and every larger k
    reads the last kept round. Each call returns a new values dict.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rounds = g._ball_sizes
    if len(rounds) <= k and not g._balls_converged:
        if g.n_vertices * min(k, 2) >= RENUMBER_MIN_WORK:
            rounds = list(level_rounds(g.adjacency, k))
        else:
            rounds = [sizes for _, sizes in reach_rounds(g.adjacency, k)]
        g._balls_converged = len(rounds) <= k
        g._ball_sizes = rounds
    last = len(rounds) - 1
    farness = [0] * g.n_vertices
    for h in range(1, min(k, last) + 1):
        farness = [f + h * (s - p) for f, s, p in zip(farness, rounds[h], rounds[h - 1])]
    values = {v: 1.0 / f if f else 0.0 for v, f in zip(g.vertices, farness)}
    return values, edges_examined(g, rounds[min(k - 1, last)])

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
numbers the bits of its reach sets breadth-first, stores each set from
the first BFS level its ball can reach and scores the vertices level by
level, while the sets stay indexed by position, so the ball sizes come
out by position.
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
    hop-ball sizes for ``all_k_closeness``, so that scoring it again at a
    k no larger than the memo's runs no search, while a larger k reruns
    the rounds from round 0; the sizes are kept, never the reach sets,
    and the memo dies with the graph.
    """

    # __weakref__: build_udg's memo refers to the last graph it built weakly
    __slots__ = ("_adjacency", "_vertices", "_ball_sizes", "_balls_converged", "__weakref__")

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


# level_rounds groups each component's BFS levels into blocks of this many,
# and the sets of one block share a bit offset. A wider block shifts fewer
# edge levels but stores every set from further back: CPU of
# level_rounds(k=4) on bench/workloads.city_rows (seed 0), median of 15
# alternating calls (5 at 100k), and tracemalloc peak of the k=4 rounds at
# 4000 (seed 504) and of centrality_select(d=1, k=4) at 20k
# (tests/test_kernels.py; 2-vCPU VM, CPython 3.11):
#
#   block   4000       20k       100k      peak 4000  peak 20k
#   1       16.4 ms    118 ms    1141 ms   1027 KB    6.13 MB
#   2       15.8 ms    118 ms    1066 ms   1070 KB    6.39 MB
#   3       15.4 ms    111 ms    1031 ms   1108 KB    6.66 MB
#   4       15.2 ms    108 ms    1063 ms   1152 KB    6.92 MB
#   8       15.7 ms    111 ms    1185 ms   1284 KB    7.95 MB
#   sets from bit 0: 17.3 ms, 214 ms, 3598 ms, 1868 KB, 30.16 MB
#
# Two levels is within 4% of the fastest at every size and peaks below
# every wider block; one level shifts every level twice a round.
LEVEL_BLOCK = 2


def level_rounds(adjacency: Sequence[Sequence[int]], k: int) -> Iterator[list[int]]:
    """The sizes ``reach_rounds`` yields, from one generation of reach sets.

    Yields ``sizes`` for h = 0, 1, ..., k, indexed like ``adjacency``,
    and stops where ``reach_rounds`` stops. The sets are indexed like
    ``adjacency`` too, but bit r of a set stands for the vertex of rank r
    in ``breadth_first_order``, less its block's offset. Python ints are
    dense, so a set costs its highest bit to OR and count. An h-hop ball
    about a vertex of BFS level j lies within levels j - h to j + h of its
    component, so in round h the sets of a block whose first level is L
    are read and written from the start of level L - h, or of the
    component's first level if that is later: a set is O(h) levels wide,
    not as wide as its rank. Each new set is stored shifted to the offset
    of the next round, and the sets of a block's edge levels are shifted
    once more, in place, as the scoring crosses into the next block, so
    that every OR of the inner loop reads sets of one offset.

    Each round scores the vertices level by level. A vertex reads only
    the sets of its own level and of the two next to it, so a level's new
    sets replace its old ones once the level after it is scored: one
    generation and the new sets of at most two levels are alive at a
    time. The last round keeps no sets, only their sizes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order, starts, components = breadth_first_order(adjacency)
    block = LEVEL_BLOCK
    # per level: its component's first level, its block's first level, and
    # the first level of the block that reads it first, whose offset it is
    # stored at; the empty level at the end writes back the last real one
    firsts, leads, readers = [], [], []
    component_starts = set(components)
    first = 0
    for j, lo in enumerate(starts):
        if lo in component_starts:
            first = j
        lead = first + (j - first) // block * block
        firsts.append(first)
        leads.append(lead)
        readers.append(lead - block if j == lead > first else lead)
    levels = [order[lo:hi] for lo, hi in zip(starts, starts[1:])] + [[]]
    reach = [0] * len(order)
    for j, level in enumerate(levels):
        base = starts[j] - starts[max(readers[j] - 1, firsts[j])]
        for rank, v in enumerate(level, base):
            reach[v] = 1 << rank
    sizes = [1] * len(order)
    yield sizes
    for h in range(1, k + 1):
        grown_sizes = [0] * len(order)
        held: list[int] = []
        held_sets: list[int] = []
        held_shift = 0
        for j, level in enumerate(levels):
            lead, first = leads[j], firsts[j]
            offset = starts[max(lead - h, first)]
            if j == lead > first:
                shift = offset - starts[max(lead - block - h, first)]
                for v in levels[j - 1]:
                    reach[v] >>= shift
                for v in level:
                    reach[v] >>= shift
            grown = []
            for v in level:
                acc = reach[v]
                for u in adjacency[v]:
                    acc |= reach[u]
                grown.append(acc)
            if h == k:
                for v, acc in zip(level, grown):
                    grown_sizes[v] = acc.bit_count()
                continue
            for v, acc in zip(held, held_sets):
                reach[v] = acc << held_shift
                grown_sizes[v] = acc.bit_count()
            held, held_sets = level, grown
            held_shift = offset - starts[max(readers[j] - h - 1, first)]
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
# that is n bits for nearly every vertex, in level_rounds' offsets the
# width of a few BFS levels. The O(n + E) search, the per-level bookkeeping
# and the shifts pay for themselves only on larger graphs, and past k = 2
# the break-even barely moves. all_k_closeness time on a fresh graph, level
# kernel over position order, 2-D uniform snapshots at mean degree 10
# (bench/workloads.city_rows, seed 0), median CPU of 15 alternating calls,
# range over two or three passes (2-vCPU VM, CPython 3.11):
#
#   k = 1:  n = 2750 1.08-1.09  3000 1.02-1.06  3500 1.01       4000 0.88-0.93  5000 0.69-0.82
#   k = 2:  n = 1500 1.07-1.12  1750 1.04-1.07  2000 1.01-1.05  2250 0.97-1.00  2500 0.96-0.97
#   k = 3:  n = 1500 1.07-1.08  1750 1.04       2000 1.00-1.01  2250 0.97-0.98  2500 0.91-0.94
#   k = 4:  n = 1500 1.09-1.10  1750 1.03-1.04  2000 0.96-1.02  2250 0.94-1.00  2500 0.89-0.95
#   k = 8:  n = 1500 1.16-1.19  1750 1.10-1.34  2000 1.04-1.10  2250 0.97-1.03  2500 0.93-1.01
#
# k = 1 drops below 1.00 only between 3500 and 4000, and for k >= 2 the
# rows at 2000-2250 straddle 1.00 (0.94-1.10), so 4000 stays the threshold.
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

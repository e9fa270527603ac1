"""Immutable communication-graph snapshots and hop-limited closeness centrality.

A snapshot is an undirected graph over the vehicles that were in direct
radio range of each other at one instant. Hop distances come from
breadth-first search with a depth cutoff, and every search reports how many
adjacency entries it scanned so callers can account for computational cost.

Distance mappings omit unreachable vertices: ``v`` has an entry iff it lies
within the requested hop cutoff of the source (the source itself at 0).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator


class UnknownVehicleError(KeyError):
    """An operation named a vehicle id that is not in the snapshot."""

    def __init__(self, vehicle: int):
        super().__init__(vehicle)
        self.vehicle = vehicle

    def __str__(self) -> str:
        return f"unknown vehicle id {self.vehicle}"


class SnapshotGraph:
    """Undirected vehicle graph at one instant, immutable after construction.

    Adjacency lists are stored sorted by id so iteration order, and any
    tie-breaking that depends on it downstream, is deterministic. Self-loops
    are rejected; duplicate edges collapse to one.
    """

    __slots__ = ("_adj", "_vertices", "_n_edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {}
        for v in vertices:
            v = int(v)
            if v < 0:
                raise ValueError(f"vehicle ids must be non-negative, got {v}")
            adj.setdefault(v, set())
        n_edges = 0
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop on vehicle {i}")
            if i not in adj:
                raise UnknownVehicleError(i)
            if j not in adj:
                raise UnknownVehicleError(j)
            if j not in adj[i]:
                adj[i].add(j)
                adj[j].add(i)
                n_edges += 1
        self._adj: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(nbrs)) for v, nbrs in sorted(adj.items())
        }
        self._vertices: tuple[int, ...] = tuple(self._adj)
        self._n_edges = n_edges

    @classmethod
    def _from_sorted_adjacency(
        cls, adj: dict[int, tuple[int, ...]], n_edges: int
    ) -> SnapshotGraph:
        """Wrap an adjacency the caller has already validated, unchecked.

        ``adj`` must have non-negative keys in ascending order, each mapped
        to an ascending tuple of other keys, every edge listed from both
        ends, and ``n_edges`` must be the number of undirected edges.
        """
        g = cls.__new__(cls)
        g._adj = adj
        g._vertices = tuple(adj)
        g._n_edges = n_edges
        return g

    @property
    def vertices(self) -> tuple[int, ...]:
        """All vehicle ids, ascending."""
        return self._vertices

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._vertices)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Direct (1-hop) neighbors of ``v``, ascending."""
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVehicleError(v) from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj.get(i, ())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as (i, j) with i < j, in sorted order."""
        for v, nbrs in self._adj.items():
            for u in nbrs:
                if v < u:
                    yield (v, u)

    def __repr__(self) -> str:
        return f"SnapshotGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"


def bfs_distances(
    g: SnapshotGraph, source: int, cutoff: int
) -> tuple[dict[int, int], int]:
    """Hop distances from ``source`` to every vertex within ``cutoff`` hops.

    Returns ``(distances, edges_examined)`` where ``distances`` maps each
    reached vertex to its hop count (source included at 0) and
    ``edges_examined`` counts the adjacency entries scanned, i.e. the
    enqueueing attempts made by the search. Vertices at depth ``cutoff`` are
    not expanded further.
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


def reach_rounds(g: SnapshotGraph, k: int) -> Iterator[tuple[list[int], list[int]]]:
    """Bit-parallel BFS from every vertex at once, one round per hop.

    Vertices are numbered by their position in ``g.vertices``. Yields
    ``(reach, sizes)`` for h = 0, 1, ..., k: bit j of ``reach[i]`` is set
    iff vertex j lies within h hops of vertex i, and ``sizes[i]`` counts
    those bits. Round h ORs each vertex's set with its neighbors' sets
    (Then et al., VLDB 2014). Once a round adds nothing, every later
    round would repeat it, so the same two lists are yielded again.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    index = {v: i for i, v in enumerate(g.vertices)}
    nbrs = [[index[u] for u in g.neighbors(v)] for v in g.vertices]
    reach = [1 << i for i in range(len(nbrs))]
    sizes = [1] * len(nbrs)
    yield reach, sizes
    for h in range(1, k + 1):
        grown = []
        for i, nb in enumerate(nbrs):
            acc = reach[i]
            for u in nb:
                acc |= reach[u]
            grown.append(acc)
        grown_sizes = [r.bit_count() for r in grown]
        if grown_sizes == sizes:
            for _ in range(h, k + 1):
                yield reach, sizes
            return
        reach, sizes = grown, grown_sizes
        yield reach, sizes


def edges_examined(g: SnapshotGraph, sizes: list[int]) -> int:
    """Adjacency entries scanned by one depth-limited search per vertex.

    ``sizes`` holds |R_{k-1}(u)| for each vertex u by position, from
    ``reach_rounds``. A search from s cut off at k hops scans the
    adjacency of each u with d(s, u) < k, and hop distance is symmetric,
    so the total is the sum over u of deg(u) * |R_{k-1}(u)|.
    """
    return sum(len(g.neighbors(v)) * size for v, size in zip(g.vertices, sizes))


def all_k_closeness(g: SnapshotGraph, k: int) -> tuple[dict[int, float], int]:
    """k-limited closeness for every vertex, plus total edges examined.

    The bits that first appear in round h of ``reach_rounds`` are the
    vertices at exactly h hops, so farness is the sum of h times their
    count. The values equal k independent depth-limited searches, one per
    vertex, and the edge count is the work those searches would do, which
    feeds the computational-cost metric.
    """
    rounds = [sizes for _, sizes in reach_rounds(g, k)]
    farness = [0] * g.n_vertices
    for h in range(1, k + 1):
        farness = [f + h * (s - p) for f, s, p in zip(farness, rounds[h], rounds[h - 1])]
    values = {v: 1.0 / f if f else 0.0 for v, f in zip(g.vertices, farness)}
    return values, edges_examined(g, rounds[k - 1])

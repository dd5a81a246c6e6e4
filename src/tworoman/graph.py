"""Immutable simple-graph representation over sorted neighbor tuples.

Internal vertex ids are contiguous 0..order-1.  Every graph additionally
carries a bijective map to external ids (the numbering used in input files);
for graphs built directly in code the two numberings coincide.  Adjacency is
stored as one sorted tuple of neighbor ids per vertex, and that is the only
adjacency format a graph holds: file output, DOT export, validation and the
traversals here read it.  The two solver routes, ``search`` and
``packing``, build their own per-vertex bitmasks from these tuples with
``neighbor_masks`` for the length of one solve.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .errors import EmptyGraphError, OutOfRangeError, SelfLoopError


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def neighbor_masks(nbrs: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """One adjacency bitmask per vertex, from sorted neighbor tuples: the
    format of the searches.  Each mask is packed relative to the smallest
    neighbor and shifted once, so each step works on a small int."""
    return tuple(mask_of(v - t[0] for v in t) << t[0] if t else 0 for t in nbrs)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Finite simple undirected graph, immutable after construction."""

    __slots__ = ("order", "_nbrs", "_ext", "_int_of")

    def __init__(self, order: int, edges: Iterable[tuple[int, int]],
                 external_ids: Iterable[int] | None = None):
        if order < 0:
            raise OutOfRangeError(order)
        adj = [set() for _ in range(order)]
        for u, v in edges:
            if not (0 <= u < order):
                raise OutOfRangeError(u)
            if not (0 <= v < order):
                raise OutOfRangeError(v)
            if u == v:
                raise SelfLoopError(u)
            adj[u].add(v)
            adj[v].add(u)
        ext = tuple(external_ids) if external_ids is not None else tuple(range(order))
        if len(ext) != order or len(set(ext)) != order:
            raise ValueError("external_ids must be a bijection onto internal ids")
        self._set(tuple(tuple(sorted(s)) for s in adj), ext)

    def _set(self, nbrs: tuple[tuple[int, ...], ...], ext: tuple[int, ...] | None) -> None:
        self.order = len(nbrs)
        self._nbrs = nbrs
        self._ext = ext if ext is not None else tuple(range(len(nbrs)))
        self._int_of = {e: i for i, e in enumerate(self._ext)}

    @classmethod
    def _from_neighbors(cls, nbrs: tuple[tuple[int, ...], ...],
                        external_ids: tuple[int, ...] | None = None) -> "Graph":
        """Trusted constructor for symmetric loop-free sorted neighbor tuples."""
        g = object.__new__(cls)
        g._set(nbrs, external_ids)
        return g

    # -- vertex / edge access -------------------------------------------------

    def vertices(self) -> range:
        return range(self.order)

    def _vertex(self, v: int) -> int:
        """``v`` itself when it is a vertex id, an int in 0..order-1; anything
        else raises OutOfRangeError.  The one range rule of the accessors."""
        if not (isinstance(v, int) and 0 <= v < self.order):
            raise OutOfRangeError(v)
        return v

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[self._vertex(v)]

    def neighbor_tuples(self) -> tuple[tuple[int, ...], ...]:
        """The sorted neighbor tuple of every vertex, indexed by vertex id."""
        return self._nbrs

    def degree(self, v: int) -> int:
        return len(self._nbrs[self._vertex(v)])

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._vertex(u), self._vertex(v)
        return v in self._nbrs[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nbrs in enumerate(self._nbrs):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(map(len, self._nbrs)) // 2

    # -- external ids ----------------------------------------------------------

    @property
    def external_ids(self) -> tuple[int, ...]:
        return self._ext

    def external_id(self, v: int) -> int:
        return self._ext[self._vertex(v)]

    def internal_id(self, ext: int) -> int:
        return self._int_of[ext]

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.order == other.order
                and self._nbrs == other._nbrs and self._ext == other._ext)

    def __hash__(self) -> int:
        return hash((self.order, self._nbrs, self._ext))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count()})"


def build_graph(order: int, edges: Iterable[tuple[int, int]],
                external_ids: Iterable[int] | None = None) -> Graph:
    """Build a canonical graph; duplicate edge pairs collapse to one edge."""
    return Graph(order, edges, external_ids)


def _members(graph: Graph, vertices: Iterable[int]) -> set[int]:
    """The vertices as a set; the first one in the order given that is not a
    vertex of the graph raises OutOfRangeError."""
    return set(map(graph._vertex, vertices))


def open_neighborhood(graph: Graph, vertices: Iterable[int]) -> frozenset[int]:
    """All vertices outside the set adjacent to at least one member of it."""
    members = _members(graph, vertices)
    out = set()
    for v in members:
        out.update(graph._nbrs[v])
    return frozenset(out - members)


def ball(graph: Graph, center: int, radius: int) -> Graph:
    """Induced subgraph on all vertices at BFS distance <= radius from center.

    Unreachable vertices are at infinite distance and never included, so on a
    disconnected graph the ball stabilizes at the component of ``center``.
    """
    seen = _members(graph, (center,))
    if radius < 0:
        raise ValueError("radius must be >= 0")
    frontier = {center}
    for _ in range(radius):
        grown = set()
        for v in frontier:
            grown.update(graph._nbrs[v])
        frontier = grown - seen
        if not frontier:
            break
        seen |= frontier
    return induced_subgraph(graph, seen)


def max_degree(graph: Graph) -> int:
    if graph.order == 0:
        raise EmptyGraphError("max_degree of an empty graph")
    return max(map(len, graph._nbrs))


def induced_subgraph(graph: Graph, keep: Iterable[int]) -> Graph:
    """Graph on ``keep`` with all edges among kept vertices; external ids kept."""
    kept = sorted(_members(graph, keep))
    index = {v: i for i, v in enumerate(kept)}
    nbrs = tuple(tuple(index[u] for u in graph._nbrs[v] if u in index) for v in kept)
    return Graph._from_neighbors(nbrs, tuple(graph._ext[v] for v in kept))

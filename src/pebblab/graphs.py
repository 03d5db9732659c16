"""Oriented graphs: representation, structural predicates, and named families.

An oriented graph is a finite simple directed graph in which no pair of
vertices carries edges in both directions.  Vertices keep their declaration
order and every operation that returns vertices or edges respects that
order, so downstream output is reproducible run to run.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from itertools import product as _iter_product

from .errors import (
    BidirectionalEdgeError,
    DuplicateVertexError,
    GraphError,
    SelfLoopError,
    UnknownEndpointError,
    UnknownVertexError,
)


class OrientedGraph:
    """Immutable oriented graph over named vertices."""

    # _sources, _valences and _graded_root are filled on first use, so graphs
    # that never ask for them (state graphs handed to the isomorphism test)
    # pay nothing.
    __slots__ = ("vertices", "edges", "_index", "_out", "_in", "_sources", "_valences", "_graded_root")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str]] = (),
    ):
        # Items are checked as consumed, so a streaming caller knows the bad one.
        index: dict[str, int] = {}
        for v in vertices:
            name = str(v)
            if name in index:
                raise DuplicateVertexError(f"duplicate vertex {name!r}")
            index[name] = len(index)
        names = tuple(index)

        seen: set[tuple[str, str]] = set()
        kept: list[tuple[str, str]] = []
        for u, w in edges:
            if u not in index:
                raise UnknownEndpointError(f"edge endpoint {u!r} is not a declared vertex")
            if w not in index:
                raise UnknownEndpointError(f"edge endpoint {w!r} is not a declared vertex")
            if u == w:
                raise SelfLoopError(f"self-loop on vertex {u!r}")
            if (w, u) in seen:
                raise BidirectionalEdgeError(f"edges in both directions between {u!r} and {w!r}")
            if (u, w) not in seen:
                seen.add((u, w))
                kept.append((u, w))

        object.__setattr__(self, "vertices", names)
        object.__setattr__(self, "edges", tuple(kept))
        object.__setattr__(self, "_index", index)
        out: dict[str, list[str]] = {v: [] for v in names}
        inn: dict[str, list[str]] = {v: [] for v in names}
        for u, w in kept:
            out[u].append(w)
            inn[w].append(u)
        object.__setattr__(self, "_out", {v: tuple(ns) for v, ns in out.items()})
        object.__setattr__(self, "_in", {v: tuple(ns) for v, ns in inn.items()})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("OrientedGraph is immutable")

    def __reduce__(self):
        return OrientedGraph, (self.vertices, self.edges)

    def __repr__(self) -> str:
        return f"OrientedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return self.vertices == other.vertices and set(self.edges) == set(other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, frozenset(self.edges)))

    # -- lookups ---------------------------------------------------------

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def __contains__(self, v: str) -> bool:
        return v in self._index

    def has_edge(self, u: str, w: str) -> bool:
        return w in self._out.get(u, ())

    def out_neighbors(self, v: str) -> tuple[str, ...]:
        self.index(v)
        return self._out[v]

    def in_neighbors(self, v: str) -> tuple[str, ...]:
        self.index(v)
        return self._in[v]

    def valence(self, v: str) -> int:
        """Out-degree of ``v``: the number of edges that start there."""
        return len(self.out_neighbors(v))

    def valences(self) -> tuple[int, ...]:
        """Out-degree of every vertex, in declaration order."""
        try:
            return self._valences
        except AttributeError:
            object.__setattr__(self, "_valences", tuple(len(self._out[v]) for v in self.vertices))
            return self._valences

    def sources(self) -> tuple[str, ...]:
        """Vertices with no incoming edge, in declaration order."""
        try:
            return self._sources
        except AttributeError:
            object.__setattr__(self, "_sources", tuple(v for v in self.vertices if not self._in[v]))
            return self._sources

    def graded_root(self) -> str | None:
        """The unique source, when every vertex is reachable from it and
        every edge goes from breadth-first depth d to depth d + 1; else
        ``None`` (so also for the graph with no vertices)."""
        try:
            return self._graded_root
        except AttributeError:
            object.__setattr__(self, "_graded_root", self._find_graded_root())
            return self._graded_root

    def _find_graded_root(self) -> str | None:
        sources = self.sources()
        if len(sources) != 1:
            return None
        depth = {sources[0]: 0}
        frontier = [sources[0]]
        while frontier:
            nxt = []
            for v in frontier:
                d = depth[v] + 1
                for w in self._out[v]:
                    if w not in depth:
                        depth[w] = d
                        nxt.append(w)
            frontier = nxt
        # A unique source can miss a directed cycle, which has no source.
        if len(depth) != len(self.vertices):
            return None
        if any(depth[w] != depth[u] + 1 for u, w in self.edges):
            return None
        return sources[0]

    def sinks(self) -> tuple[str, ...]:
        """Vertices with valence zero, in declaration order."""
        return tuple(v for v in self.vertices if not self._out[v])

    # -- structure -------------------------------------------------------

    def underlying_has_cycle(self) -> bool:
        """True iff the undirected shadow of the graph contains a cycle."""
        parent = list(range(len(self.vertices)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for u, w in self.edges:
            ru, rw = find(self._index[u]), find(self._index[w])
            if ru == rw:
                return True
            parent[ru] = rw
        return False

    def is_downward_tree(self) -> str | None:
        """Return the root name if the graph is a downward directed rooted
        tree (every edge points away from a unique root), else ``None``.

        That is a `graded_root` with n - 1 edges: every vertex is reached
        from the root, so the n - 1 breadth-first tree edges are all the
        edges."""
        return self.graded_root() if len(self.edges) == len(self.vertices) - 1 else None

    def relabel(self, mapping: Mapping[str, str]) -> "OrientedGraph":
        """New graph with every vertex renamed through ``mapping``."""
        missing = [v for v in self.vertices if v not in mapping]
        if missing:
            raise UnknownVertexError(f"relabel mapping misses vertices {missing}")
        return OrientedGraph(
            (mapping[v] for v in self.vertices),
            ((mapping[u], mapping[w]) for u, w in self.edges),
        )


# -- named families --------------------------------------------------------


def oriented_path(n: int) -> OrientedGraph:
    """The path a1 -> a2 -> ... -> an."""
    if n < 1:
        raise GraphError(f"oriented path needs at least 1 vertex, got {n}")
    names = [f"a{i}" for i in range(1, n + 1)]
    return OrientedGraph(names, zip(names, names[1:]))


def downward_cycle(k: int) -> OrientedGraph:
    """A k-cycle oriented as two directed paths from one source ("top")
    to one sink ("bottom"); k must be even and at least 4."""
    if k < 4 or k % 2:
        raise GraphError(f"downward cycle needs an even length >= 4, got {k}")
    half = k // 2
    left = [f"l{i}" for i in range(1, half)]
    right = [f"r{i}" for i in range(1, half)]
    vertices = ["top", *left, *right, "bottom"]
    edges = list(zip(["top", *left], [*left, "bottom"]))
    edges += list(zip(["top", *right], [*right, "bottom"]))
    return OrientedGraph(vertices, edges)


def oriented_complete_bipartite(n: int, m: int) -> OrientedGraph:
    """Parts a1..an and b1..bm with every edge oriented from the a side."""
    if n < 1 or m < 1:
        raise GraphError(f"both parts need at least 1 vertex, got ({n}, {m})")
    a = [f"a{i}" for i in range(1, n + 1)]
    b = [f"b{j}" for j in range(1, m + 1)]
    return OrientedGraph(a + b, ((u, w) for u in a for w in b))


def cartesian_product(factors: Sequence[OrientedGraph]) -> OrientedGraph:
    """Cartesian product of oriented graphs.

    Product vertices are tuples of factor vertices, named by comma-joining
    the coordinates; an edge changes exactly one coordinate along a factor
    edge and keeps that edge's orientation.
    """
    if not factors:
        raise GraphError("cartesian product needs at least one factor")
    for g in factors:
        if not g.vertices:
            raise GraphError("cartesian product factor has no vertices")

    coords = list(_iter_product(*(g.vertices for g in factors)))
    names = {c: product_vertex_name(c) for c in coords}
    edges = []
    for c in coords:
        for i, g in enumerate(factors):
            for w in g.out_neighbors(c[i]):
                target = c[:i] + (w,) + c[i + 1 :]
                edges.append((names[c], names[target]))
    return OrientedGraph((names[c] for c in coords), edges)


def product_vertex_name(coordinates: Sequence[str]) -> str:
    """Name of the product vertex with the given factor coordinates."""
    return ",".join(coordinates)

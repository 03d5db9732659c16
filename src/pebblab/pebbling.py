"""Pebbling assignments, the oriented pebbling move, and named assignment
families on paths, trees, and Cartesian products of paths.

A pebbling move removes two pebbles from a vertex and adds one pebble to an
out-neighbor; a vertex is movable when it holds at least two pebbles and has
non-zero valence.  Assignments are immutable so they can serve as hash keys
in the state-graph builder.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping, Sequence

from .errors import AssignmentError, IllegalMoveError
from .graphs import OrientedGraph, product_vertex_name, cartesian_product


def _count(v: str, c) -> int:
    try:
        return operator.index(c)
    except TypeError:
        raise AssignmentError(f"pebble count for {v!r} must be an integer, got {c!r}") from None


class Assignment:
    """A pebble count for every vertex of a fixed oriented graph."""

    __slots__ = ("graph", "counts")

    def __init__(self, graph: OrientedGraph, pebbles: Mapping[str, int] | Sequence[int] = ()):
        if isinstance(pebbles, Mapping):
            for name in pebbles:
                graph.index(name)
            given = [pebbles.get(v, 0) for v in graph.vertices]
        else:
            given = list(pebbles)
            if len(given) != len(graph.vertices):
                raise AssignmentError(
                    f"expected {len(graph.vertices)} counts, got {len(given)}"
                )
        counts = tuple(_count(v, c) for v, c in zip(graph.vertices, given))
        if any(c < 0 for c in counts):
            raise AssignmentError("pebble counts must be non-negative")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Assignment is immutable")

    def __repr__(self) -> str:
        return f"Assignment({','.join(map(str, self.counts))})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.graph == other.graph and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __getitem__(self, v: str) -> int:
        return self.counts[self.graph.index(v)]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.graph.vertices, self.counts))

    def with_count(self, v: str, count: int) -> "Assignment":
        if count < 0:
            raise AssignmentError("pebble counts must be non-negative")
        i = self.graph.index(v)
        return Assignment(self.graph, self.counts[:i] + (count,) + self.counts[i + 1 :])

    # -- movability ------------------------------------------------------

    def is_movable(self, v: str) -> bool:
        """At least two pebbles and at least one outgoing edge."""
        return self[v] >= 2 and self.graph.valence(v) >= 1

    def is_n_movable(self, v: str, n: int) -> bool:
        """Movable with valence at least ``n``."""
        if n < 1:
            raise AssignmentError(f"n must be at least 1, got {n}")
        return self.is_movable(v) and self.graph.valence(v) >= n

    def movable_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.graph.vertices if self.is_movable(v))

    def legal_moves(self) -> tuple[tuple[str, str], ...]:
        """All edges (v, w) with at least two pebbles on v, in edge order."""
        return tuple(e for e in self.graph.edges if self.counts[self.graph.index(e[0])] >= 2)

    def apply_move(self, edge: tuple[str, str]) -> "Assignment":
        """Remove two pebbles from edge[0], add one to edge[1]."""
        u, w = edge
        if not self.graph.has_edge(u, w):
            raise IllegalMoveError(f"({u!r}, {w!r}) is not an edge of the graph")
        iu, iw = self.graph.index(u), self.graph.index(w)
        if self.counts[iu] < 2:
            raise IllegalMoveError(f"vertex {u!r} has {self.counts[iu]} pebbles, needs 2")
        counts = list(self.counts)
        counts[iu] -= 2
        counts[iw] += 1
        return Assignment(self.graph, counts)


# -- assignment families ----------------------------------------------------


def path_vertex_order(path: OrientedGraph) -> tuple[str, ...]:
    """Vertices of an oriented path from source to sink.

    Raises AssignmentError unless the graph is a single oriented path with
    at least one edge.
    """
    root = path.is_downward_tree()
    if root is None or any(path.valence(v) > 1 for v in path.vertices):
        raise AssignmentError("graph is not an oriented path")
    if len(path.vertices) < 2:
        raise AssignmentError("path needs a source distinct from its sink")
    order = [root]
    while True:
        nxt = path.out_neighbors(order[-1])
        if not nxt:
            return tuple(order)
        order.append(nxt[0])


def _fill_value(fill: int | Mapping[str, int], v: str) -> int:
    value = fill[v] if isinstance(fill, Mapping) else fill
    if value not in (0, 1):
        raise AssignmentError(f"fill for {v!r} must be 0 or 1, got {value}")
    return value


def simple_assignment(
    path: OrientedGraph, source_pebbles: int, sink_pebbles: int = 0
) -> Assignment:
    """Two or three pebbles on the source, one on every other non-sink
    vertex, any count on the sink."""
    order = path_vertex_order(path)
    if source_pebbles not in (2, 3):
        raise AssignmentError(f"source pebbles must be 2 or 3, got {source_pebbles}")
    counts = {v: 1 for v in order[1:-1]}
    counts[order[0]] = source_pebbles
    counts[order[-1]] = sink_pebbles
    return Assignment(path, counts)


def tree_assignment(
    tree: OrientedGraph,
    root_pebbles: int,
    leaf_pebbles: Mapping[str, int] | None = None,
) -> Assignment:
    """Two or three pebbles on the root of a downward tree, one pebble on
    every other vertex with non-zero valence, requested counts (default 0)
    on the valence-zero vertices."""
    root = tree.is_downward_tree()
    if root is None:
        raise AssignmentError("graph is not a downward directed rooted tree")
    if root_pebbles not in (2, 3):
        raise AssignmentError(f"root pebbles must be 2 or 3, got {root_pebbles}")
    valences = tree.valences()
    leaf_pebbles = dict(leaf_pebbles or {})
    for v in leaf_pebbles:
        if valences[tree.index(v)] != 0:
            raise AssignmentError(f"vertex {v!r} has non-zero valence, not a leaf count slot")
    counts = [1 if d else leaf_pebbles.get(v, 0) for v, d in zip(tree.vertices, valences)]
    counts[tree.index(root)] = root_pebbles
    return Assignment(tree, counts)


def near_sink_assignment(
    path: OrientedGraph,
    k: int,
    sink_pebbles: int = 0,
    fill: int | Mapping[str, int] = 1,
) -> Assignment:
    """k pebbles on the vertex adjacent to the sink, zero or one pebbles on
    every other non-sink vertex, any count on the sink."""
    order = path_vertex_order(path)
    if k < 0:
        raise AssignmentError(f"k must be non-negative, got {k}")
    counts = {v: _fill_value(fill, v) for v in order[:-2]}
    counts[order[-2]] = k
    counts[order[-1]] = sink_pebbles
    return Assignment(path, counts)


def heavy_step_assignment(
    path: OrientedGraph,
    position: int,
    heavy: int,
    sink_pebbles: int = 0,
    fill: int | Mapping[str, int] = 1,
) -> Assignment:
    """Four or five pebbles at the 1-based ``position``, zero pebbles on the
    following vertex, zero or one pebbles on the remaining non-sink
    vertices, any count on the sink.

    The following vertex must itself be a non-sink, so positions run from 1
    to n - 2 on an n-vertex path.
    """
    order = path_vertex_order(path)
    if heavy not in (4, 5):
        raise AssignmentError(f"heavy count must be 4 or 5, got {heavy}")
    if not 1 <= position <= len(order) - 2:
        raise AssignmentError(
            f"position must be between 1 and {len(order) - 2}, got {position}"
        )
    counts = {}
    for i, v in enumerate(order[:-1], start=1):
        if i == position:
            counts[v] = heavy
        elif i == position + 1:
            counts[v] = 0
        else:
            counts[v] = _fill_value(fill, v)
    counts[order[-1]] = sink_pebbles
    return Assignment(path, counts)


def product_assignment(
    factors: Sequence[tuple[OrientedGraph, Assignment]],
    shared_sink: int = 0,
    fill: int | Mapping[str, int] = 0,
) -> tuple[OrientedGraph, Assignment]:
    """Cartesian product of pebbled oriented paths.

    Factor i's assignment is copied onto the designated copy of that path
    (coordinate i varies, every other coordinate pinned at its sink).  The
    copies pairwise meet only at the all-sinks vertex, whose count is the
    explicit ``shared_sink`` parameter; counts there never matter because it
    is a sink.  Every remaining vertex gets zero or one pebbles via
    ``fill``.
    """
    if not factors:
        raise AssignmentError("product needs at least one factor")
    orders = []
    for path, assignment in factors:
        if assignment.graph != path:
            raise AssignmentError("factor assignment is bound to a different graph")
        orders.append(path_vertex_order(path))

    product = cartesian_product([path for path, _ in factors])
    sinks = tuple(order[-1] for order in orders)
    counts = {v: _fill_value(fill, v) for v in product.vertices}
    for i, (order, (_, assignment)) in enumerate(zip(orders, factors)):
        for p in order:
            coords = sinks[:i] + (p,) + sinks[i + 1 :]
            counts[product_vertex_name(coords)] = assignment[p]
    counts[product_vertex_name(sinks)] = shared_sink
    return product, Assignment(product, counts)

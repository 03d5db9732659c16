"""The line-based text format for graphs and assignments.

    # comment
    v <name> [<pebbles>]
    e <from> <to>

``#`` starts a comment, ``v`` declares a vertex in order (with an optional
pebble count, absent meaning zero), ``e`` declares an oriented edge.  Parse
errors carry the offending line number.  Writers emit vertices first, then
edges, in declaration order; assignment writers always emit explicit counts.
"""

from __future__ import annotations

from .errors import GraphError, ParseError
from .graphs import OrientedGraph
from .pebbling import Assignment


def parse_graph_text(text: str) -> tuple[OrientedGraph, Assignment]:
    """Parse the text format into a graph plus assignment (counts default 0).

    Graph errors come from ``OrientedGraph``, on the line it was consuming.
    """
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, tuple[str, str]]] = []
    counts: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) not in (2, 3):
                raise ParseError(lineno, f"vertex line needs a name and optional count: {raw!r}")
            vertices.append((lineno, parts[1]))
            if len(parts) == 3:
                try:
                    count = int(parts[2])
                except ValueError:
                    raise ParseError(lineno, f"pebble count {parts[2]!r} is not an integer") from None
                if count < 0:
                    raise ParseError(lineno, f"pebble count must be non-negative, got {count}")
                counts[parts[1]] = count
        elif parts[0] == "e":
            if len(parts) != 3:
                raise ParseError(lineno, f"edge line needs two endpoints: {raw!r}")
            edges.append((lineno, (parts[1], parts[2])))
        else:
            raise ParseError(lineno, f"unknown directive {parts[0]!r}")

    at = 0

    def numbered(items):
        nonlocal at
        for at, item in items:
            yield item

    try:
        graph = OrientedGraph(numbered(vertices), numbered(edges))
    except GraphError as exc:
        raise ParseError(at, str(exc)) from None
    return graph, Assignment(graph, counts)


def format_graph(g: OrientedGraph) -> str:
    lines = [f"v {v}" for v in g.vertices]
    lines += [f"e {u} {w}" for u, w in g.edges]
    return "\n".join(lines) + "\n"


def format_assignment(a: Assignment) -> str:
    g = a.graph
    lines = [f"v {v} {c}" for v, c in zip(g.vertices, a.counts)]
    lines += [f"e {u} {w}" for u, w in g.edges]
    return "\n".join(lines) + "\n"

"""State graphs of the pebbling process.

The state graph of (graph, assignment) has one vertex per distinct pebble
distribution reachable by pebbling moves and one labeled edge per legal move
between recorded states.  Every move drops the pebble total by exactly one,
so the result is a graded DAG with a single source (the initial assignment)
and a bipartite undirected shadow.

State identity is the exact pebble distribution, never the move history:
independent moves applied in either order reach one state.

Representation.  A state is one Python int holding every vertex's count in
its own byte-aligned field (8, 16, 32, ... bits, the narrowest whose top bit
stays clear for the pebble total); vertex i's field starts at bit i * width.
The top bit of each field is a guard: adding ``2**(width-1) - k`` to every
field sets the guard exactly where the count is at least ``k``, so one
addition and one AND list the vertices holding two pebbles, and a move is
one subtraction.  Edges are stored in compressed sparse rows of
``array('I')``: a state's out-edges are ``offsets[i]:offsets[i+1]`` of
``targets`` (state ids) and ``labels`` (indices into ``graph.edges``).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from .errors import StateBudgetExceededError
from .graphs import OrientedGraph
from .pebbling import Assignment

DEFAULT_STATE_BUDGET = 10**6

# Most move-table entries a layout keeps.  Graphs with up to 12 vertices that
# can move never reach it; past it, entries are computed and not kept, so
# the table of the layout kept between builds stays small.
_TABLE_LIMIT = 1 << 12


def _field_width(total: int) -> int:
    """Bits per vertex field: 8 * 2**k, wide enough that no count (at most
    ``total``) reaches the field's guard bit."""
    width = 8
    while total >> (width - 1):
        width *= 2
    return width


class _Layout:
    """How one graph's pebble vectors pack at one field width, with the
    move table of each set of vertices that hold two or more pebbles."""

    __slots__ = ("graph", "width", "repunit", "out_moves", "add2", "movable", "table")

    def __init__(self, graph: OrientedGraph, width: int):
        n = len(graph.vertices)
        self.graph = graph
        self.width = width
        # One in the lowest bit of every field.
        self.repunit = int.from_bytes((1).to_bytes(width // 8, "little") * n, "little")
        index = {v: i for i, v in enumerate(graph.vertices)}
        # Per vertex: (edge index, what a move along the edge subtracts: two
        # pebbles off its tail, one onto its head) for each out-edge.
        self.out_moves: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (u, w) in enumerate(graph.edges):
            i = index[u]
            self.out_moves[i].append((e, (2 << (i * width)) - (1 << (index[w] * width))))
        self.add2, self.movable = self.threshold_mask(2, 1)
        self.table: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def threshold_mask(self, k: int, min_valence: int) -> tuple[int, int]:
        """(add, high): ``(s + add) & high`` keeps the guard bit of every
        vertex with valence at least ``min_valence`` holding at least ``k``
        pebbles in state ``s``."""
        top = self.width - 1
        high = sum(
            1 << (i * self.width + top)
            for i, out in enumerate(self.out_moves)
            if len(out) >= min_valence
        )
        return self.repunit * ((1 << top) - k), high

    def moves(self, mask: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(deltas, edge indices) of the legal moves, in edge order, when the
        guard bits in ``mask`` mark the vertices holding two pebbles."""
        entry = self.table.get(mask)
        if entry is None:
            legal: list[tuple[int, int]] = []
            rest = mask
            while rest:
                top = rest.bit_length() - 1
                legal += self.out_moves[top // self.width]
                rest ^= 1 << top
            legal.sort()
            labels, deltas = zip(*legal) if legal else ((), ())
            entry = (deltas, labels)
            if len(self.table) < _TABLE_LIMIT:
                self.table[mask] = entry
        return entry

    def pack(self, counts: Sequence[int]) -> int:
        if self.width == 8:
            return int.from_bytes(bytes(counts), "little")
        return sum(c << (i * self.width) for i, c in enumerate(counts))

    def unpack(self, s: int) -> tuple[int, ...]:
        n, width = len(self.graph.vertices), self.width
        if width == 8:
            return tuple(s.to_bytes(n, "little"))
        mask = (1 << width) - 1
        return tuple((s >> (i * width)) & mask for i in range(n))


# The last build: (layout, counts, state graph or None).  Scans build one
# graph under many assignments; the layout makes those repeats cheap
# without keeping older graphs alive.  The state graph is kept only when it
# has at most |V(graph)| states, the only ones that can be isomorphic to
# the graph, so a second claim checked on the same graph object and counts
# reuses it and the entry stays graph-sized.  The layout does not point
# back to the state graph, so no cycle forms.  The entry is replaced whole
# and a layout's move table only gains entries that any thread would
# compute identically, so builds stay pure and thread-safe.
_last_layout: tuple[_Layout, tuple[int, ...], AssignmentGraph | None] | None = None


class AssignmentGraph:
    """Immutable state graph; state 0 is always the initial assignment.

    ``build`` makes one form: ``packed`` (one int per state, in id order)
    and the edge rows ``offsets``, ``targets`` and ``labels`` (read-only
    memoryviews of the ``array('I')`` rows), so ``len(packed)`` and
    ``len(labels)`` count the states and edges.  ``states`` (count tuples)
    and ``edges`` ((from, to, index into graph.edges) triples, by source
    then edge order) are plain tuples built from it on first read and kept.
    None of these attributes can be rebound or written to.
    """

    __slots__ = ("_layout", "_packed", "_offsets", "_targets", "_labels", "_states", "_edges")

    def __init__(self, layout: _Layout, packed, offsets, targets, labels):
        self._layout = layout
        self._packed = tuple(packed)
        self._offsets = offsets
        self._targets = targets
        self._labels = labels
        self._states = None
        self._edges = None

    def __repr__(self) -> str:
        return f"AssignmentGraph({len(self._packed)} states, {len(self._targets)} edges)"

    @property
    def graph(self) -> OrientedGraph:
        return self._layout.graph

    @property
    def packed(self) -> tuple[int, ...]:
        return self._packed

    @property
    def offsets(self) -> memoryview:
        return memoryview(self._offsets).toreadonly()

    @property
    def targets(self) -> memoryview:
        return memoryview(self._targets).toreadonly()

    @property
    def labels(self) -> memoryview:
        return memoryview(self._labels).toreadonly()

    @property
    def states(self) -> tuple[tuple[int, ...], ...]:
        if self._states is None:
            self._states = tuple(map(self._layout.unpack, self._packed))
        return self._states

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        if self._edges is None:
            offsets, targets, labels = self._offsets, self._targets, self._labels
            self._edges = tuple(
                (i, targets[k], labels[k])
                for i in range(len(offsets) - 1)
                for k in range(offsets[i], offsets[i + 1])
            )
        return self._edges

    @property
    def root(self) -> int:
        return 0

    def successor(self, state_id: int, edge_index: int) -> int | None:
        """The state that the move along ``graph.edges[edge_index]`` leads
        to from ``state_id``, or ``None`` if that move is not legal there."""
        labels = self._labels
        for k in range(self._offsets[state_id], self._offsets[state_id + 1]):
            if labels[k] == edge_index:
                return self._targets[k]
        return None

    def assignment(self, state_id: int) -> Assignment:
        return Assignment(self.graph, self._layout.unpack(self._packed[state_id]))

    def state_label(self, state_id: int) -> str:
        """Pebble vector in vertex order, e.g. ``"2,1,0"``."""
        return ",".join(map(str, self._layout.unpack(self._packed[state_id])))

    def traversal_counts(self) -> dict[tuple[str, str], int]:
        """How many state transitions each edge of the base graph labels."""
        counts = [0] * len(self.graph.edges)
        for e in self._labels:
            counts[e] += 1
        return dict(zip(self.graph.edges, counts))

    def is_fully_traversable(self) -> bool:
        """True iff the base graph has an edge and every edge labels at
        least one transition."""
        return bool(self.graph.edges) and len(set(self._labels)) == len(self.graph.edges)

    def as_oriented_graph(self) -> OrientedGraph:
        """Forget labels and pebble contents; state ids become names."""
        names = list(map(str, range(len(self._packed))))
        offsets, targets = self._offsets, self._targets
        return OrientedGraph(
            names,
            ((names[i], names[targets[k]]) for i in range(len(names)) for k in range(offsets[i], offsets[i + 1])),
        )

    def to_dot(self) -> str:
        """Byte-stable DOT text: nodes in state order, edges sorted by
        (from, to, label).  Vertex names in edge labels have ``\\`` and
        ``"`` escaped, so any name the text format allows stays valid DOT."""
        lines = ["digraph assignment_graph {"]
        for i in range(len(self._packed)):
            lines.append(f'  s{i} [label="{self.state_label(i)}"];')
        names = ["->".join(e).replace("\\", "\\\\").replace('"', '\\"') for e in self.graph.edges]
        rows = sorted((f, t, names[e]) for f, t, e in self.edges)
        for f, t, label in rows:
            lines.append(f'  s{f} -> s{t} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.graph.vertices),
            "graph_edges": [list(e) for e in self.graph.edges],
            "root": 0,
            "states": [list(s) for s in self.states],
            "edges": [[f, t, list(self.graph.edges[e])] for f, t, e in self.edges],
        }


def check_build_args(graph: OrientedGraph, start: Assignment, state_budget: int) -> None:
    """Raise ValueError when ``start`` is bound to another graph, then when
    the budget is below one state."""
    if start.graph is not graph and start.graph != graph:
        raise ValueError("assignment is bound to a different graph")
    if state_budget < 1:
        raise ValueError("state budget must be at least 1")


def build(
    graph: OrientedGraph,
    start: Assignment,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> AssignmentGraph:
    """Breadth-first closure of ``start`` under pebbling moves.

    States are deduplicated by exact pebble distribution; moves are tried in
    the graph's edge order, so state numbering (discovery order) and the
    edge list are deterministic.  Every move lowers the pebble total by one,
    so breadth-first order is level order and the dedup map holds one level
    at a time.  Raises StateBudgetExceededError instead of returning a
    truncated graph.  A repeat of the last build's graph object and counts
    returns the same state graph when it was kept (see ``_last_layout``).
    """
    global _last_layout
    check_build_args(graph, start, state_budget)
    counts = start.counts
    width = _field_width(sum(counts))
    last = _last_layout
    if last is not None and last[0].graph is graph and last[0].width == width:
        layout, last_counts, stored = last
        if stored is not None and last_counts == counts:
            if len(stored.packed) > state_budget:
                raise StateBudgetExceededError(state_budget)
            return stored
    else:
        layout = _Layout(graph, width)
    _last_layout = (layout, counts, None)
    add, movable, table, moves = layout.add2, layout.movable, layout.table, layout.moves
    packed = [layout.pack(counts)]
    offsets = array("I", [0])
    targets = array("I")
    labels = array("I")
    put, push, extend_labels = offsets.append, targets.append, labels.extend

    begin = 0
    while True:
        end = len(packed)
        room = state_budget - end
        seen: dict[int, int] = {}
        get = seen.get
        for s in packed[begin:end]:
            mask = (s + add) & movable
            entry = table.get(mask)
            if entry is None:
                entry = moves(mask)
            for d in entry[0]:
                child = s - d
                sid = get(child)
                if sid is None:
                    sid = seen[child] = end + len(seen)
                push(sid)
            extend_labels(entry[1])
            put(len(targets))
            if len(seen) > room:
                raise StateBudgetExceededError(state_budget)
        if not seen:
            break
        packed += seen
        begin = end
    ag = AssignmentGraph(layout, packed, offsets, targets, labels)
    if len(packed) <= len(graph.vertices):
        _last_layout = (layout, counts, ag)
    return ag


def find_downward_4_cycle(g: OrientedGraph) -> tuple[str, str, str, str] | None:
    """First (A, B, C, D) with edges A->B, A->C, B->D, C->D and B != C,
    scanning vertices in declaration order; ``None`` if no such subgraph."""
    for a in g.vertices:
        children = g.out_neighbors(a)
        for i, b in enumerate(children):
            b_out = set(g.out_neighbors(b))
            for c in children[i + 1 :]:
                for d in g.out_neighbors(c):
                    if d in b_out:
                        return (a, b, c, d)
    return None

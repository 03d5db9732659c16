"""Desk-scale exhaustive scans over assignment spaces.

Scans fix every valence-zero vertex at zero pebbles and report it as "any":
pebbles on a valence-zero vertex never enable or change a move, so each
finding stands for the whole infinite family over sink counts.  Each
graph numbers its own assignments, and hits come in (graph position, index)
order.

A scan covers every capped assignment but visits only those that an
isomorphism onto the state graph does not rule out at the root's first two
levels: none on a graph without a graded root, and on a graded graph only
the vectors whose legal moves number the root's valence, whose root's
children have the move counts that the root's out-neighbours have as
valences, and whose root's grandchildren have the in-degrees that the
graph's level-2 vertices have.  An isomorphism maps the graded root to the
root state and keeps the distance from it, out-degree and in-degree; both
graphs are graded, so every in-edge of a level-2 state or vertex comes from
level 1.  The vectors are generated heavy set by heavy set, one pattern of
sub-ranges at a time.  The rest are counted, not visited.

Two facts, which follow from the definitions alone, let one build answer
for many visited vectors; a build answers for both the isomorphism and full
traversability.

- Fact A (more pebbles).  Take a <= a' entrywise.  Every move sequence legal
  from a is legal from a', and s -> s + (a' - a) maps a's states one to one
  into those of a'.  So if a has more than |V| states, so does every a' >= a.
- Fact B (unfed vertices).  Let U be non-sinks that hold 0 under a, and let
  no move of a's state graph have its head in U.  A vertex holding 0 or 1
  cannot move until it receives a pebble, so for every c in {0,1}^U the
  state graph of a + c has a's states shifted by c and the same edge rows
  (`offsets`, `targets`, `labels`): the same isomorphism verdict, witness
  and full traversability.

So `_hits` yields a hit group once, as its built base (the least member)
and the vertices it sets to 0 or 1; only `scan_graph_assignments` lists it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import ge, itemgetter, mul
from typing import Iterator, Sequence

from .assignment_graph import AssignmentGraph, build
from .errors import AssignmentError, GraphError, StateBudgetExceededError
from .generate import enumerate_oriented_graphs
from .graphs import OrientedGraph, downward_cycle
# digraph_isomorphic is not called here, but perfbench's tracer patches it here.
from .iso import IsoMapping, automorphisms, canonical_labeling, digraph_isomorphic, isomorphism_onto_rows
from .pebbling import Assignment
from .textio import format_graph

Hit = tuple[int, int, tuple[int, ...], bool]


def state_graph_isomorphism(g: OrientedGraph, a: Assignment) -> IsoMapping | None:
    """Witness that ``g`` is isomorphic to its own state graph under ``a``,
    or ``None`` (a definite no).

    Uses sound early exits.  Every move lowers the pebble total by one, and
    every state is reached from the root ``a`` by moves, so a state's
    breadth-first depth is total(a) - total(s), every transition goes one
    level down, and the root is the only source.  An isomorphism keeps
    this, so ``g`` must have a `graded_root`, mapped to the root, whose
    valence is the number of legal moves of ``a``.
    """
    root = g.graded_root()
    if root is None:
        return None
    # The legal moves of a, counted without listing them.
    moves = sum(d for c, d in zip(a.counts, g.valences()) if c >= 2)
    if moves != g.valence(root):
        return None
    found = _built_witness(g, a)
    return found[1] if found else None


def _built_witness(g: OrientedGraph, a: Assignment) -> tuple[AssignmentGraph, IsoMapping] | None:
    """``a``'s state graph and the witness that ``g`` is isomorphic to it, or
    ``None``; more than |V(g)| states rules it out, so that caps the build."""
    try:
        ag = build(g, a, state_budget=len(g.vertices))
    except StateBudgetExceededError:
        return None
    iso = built_isomorphism(g, ag)
    return (ag, iso) if iso is not None else None


# The last answer of `built_isomorphism`: (graph, offsets row, targets row,
# witness or None).  For the same graph object the rows fix the search's
# answer, and they never change once `build` returns, so the entry holds the
# rows themselves and compares them with ``==``.  Only state graphs with
# |V(g)| states reach the memo, so the entry stays graph-sized; it is
# replaced whole, so concurrent callers read either the old or the new one.
_last_isomorphism: tuple[OrientedGraph, memoryview, memoryview, IsoMapping | None] | None = None


def built_isomorphism(g: OrientedGraph, ag: AssignmentGraph) -> IsoMapping | None:
    """Witness that ``g`` is isomorphic to the built state graph ``ag``, or
    ``None``; counts are compared first, so a mismatch names no state.  The
    search reads the state graph's rows, naming a state only in the
    witness.  A repeat of the last call's graph and rows skips the search."""
    global _last_isomorphism
    offsets, targets = ag.offsets, ag.targets
    if len(ag.packed) != len(g.vertices) or len(targets) != len(g.edges):
        return None
    last = _last_isomorphism
    if last is not None and last[0] is g and last[1] == offsets and last[2] == targets:
        return last[3]
    found = isomorphism_onto_rows(g, offsets, targets)
    _last_isomorphism = (g, offsets, targets, found)
    return found


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise AssignmentError(f"pebble cap must be non-negative, got {cap}")


# The digits of a `product` tuple, lowest first.
_lowest_first = itemgetter(slice(None, None, -1))


def iter_count_vectors(length: int, cap: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(index, vector) over all count vectors in [0, cap]^length.  The index
    is the vector read as a base-(cap+1) number whose first entry is the
    lowest digit."""
    _check_cap(cap)
    return enumerate(map(_lowest_first, product(range(cap + 1), repeat=length)))


def _heavy_sets(valences: Sequence[int], target: int, start: int = 0) -> Iterator[tuple[int, ...]]:
    """The increasing position tuples drawn from ``valences[start:]`` whose
    valences sum to ``target``.  Valences are positive, so a branch stops
    as soon as its sum would pass ``target``."""
    if target == 0:
        yield ()
    for k in range(start, len(valences)):
        if valences[k] <= target:
            for rest in _heavy_sets(valences, target - valences[k], k + 1):
                yield (k, *rest)


def _grandchild_in_degrees(
    out: list[list[int]], keys: list[list[int]], ranges: list[Sequence[int]], heavy: set[int], movers: set[int]
) -> list[int]:
    """The sorted in-degrees of the states two moves below the root, where
    vertex i holds a count in ``ranges[i]``, the ``heavy`` vertices two or
    more, and only ``movers`` can hold two or more after one move.  Whether
    a vertex can move after one move is the same for every count in its
    range, so the range's least count decides it.  Distinct moves from one
    state reach distinct states, so a state's in-degree is the number of
    two-move sequences that reach it, which the sum of their ``keys``
    names."""
    reached: dict[int, int] = {}
    for u in heavy:
        for w, first in zip(out[u], keys[u]):
            for t in movers:
                if ranges[t][0] - 2 * (t == u) + (t == w) >= 2:
                    for second in keys[t]:
                        state = first + second
                        reached[state] = reached.get(state, 0) + 1
    return sorted(reached.values())


def _candidates(
    g: OrientedGraph, cap: int, limit: float = float("inf")
) -> Iterator[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """(index, count vector, undecided), pattern by pattern, of the capped
    assignments that pass three tests an isomorphism onto the state graph
    forces.  An
    assignment holds the `iter_count_vectors` entries on the non-sink
    vertices, in vertex order, and 0 on every sink, and has that entry's
    index.  It maps ``g``'s graded root to the root state, which has
    one child per legal move, and it keeps the distance from the root,
    out-degree and in-degree.

    - Root degree: the legal moves, one per out-edge of each vertex holding
      two or more pebbles, number the root's valence.  So those vertices
      form a heavy set whose valences sum to the root's.  This is also the
      pair test's own exit before its build.
    - Level 1: the children's move counts are, as a multiset, the valences
      of the root's out-neighbours.  With M the root's valence, the child of
      move u -> w has M - [c_u < 4] val(u) + [w light, c_w = 1] val(w) moves.
    - Level 2: the grandchildren's in-degrees are, as a multiset, those of
      ``g``'s level-2 vertices.  Both graphs are graded, so each of those
      in-edges comes from level 1.  After move u -> w, vertex t can move
      exactly when t is heavy and t != u, or t = u holds 4..cap pebbles, or
      t = w is light and holds 1; no other light vertex holds two pebbles.

    Within a heavy set both level tests read only whether each heavy vertex
    holds 2..3 or 4..cap pebbles and whether each light non-sink that a
    heavy vertex points to holds 0 or 1.  Each such pattern is decided once,
    and each one that passes yields its vectors below ``limit`` in index
    order, each with the same undecided (vertex, index weight) pairs: the
    other non-sinks, held at 0 and free to hold 0..min(cap, 1), empty when
    cap is 0.  Sinks hold 0.  Entry c at free position k adds c (cap+1)^k
    to the index, so a position where (cap+1)^k reaches ``limit`` is held
    at 0, and one where 2 (cap+1)^k does at 0 or 1."""
    root = g.graded_root()
    if root is None:
        return
    valences = g.valences()
    free = [i for i, d in enumerate(valences) if d]
    free = free[: sum((cap + 1) ** k < limit for k in range(len(free)))]
    can_move = [i for k, i in enumerate(free) if cap >= 2 and 2 * (cap + 1) ** k < limit]
    weights = [0] * len(valences)
    for k, i in enumerate(free):
        weights[i] = (cap + 1) ** k
    out = [[g.index(w) for w in g.out_neighbors(v)] for v in g.vertices]
    r = g.index(root)
    moves, wanted = valences[r], sorted(valences[w] for w in out[r])
    wanted2 = None  # g's level-2 in-degrees, once some pattern passes level 1
    light, low, high = range(min(cap, 1) + 1), range(2, min(cap, 3) + 1), range(4, cap + 1)
    nonzero = set(free)
    for chosen in _heavy_sets([valences[i] for i in can_move], moves):
        heavy = {can_move[k] for k in chosen}
        targets = {w for u in heavy for w in out[u] if w in nonzero}
        # Per vertex, its sub-ranges, each with the moves that the children
        # of its own moves lose and those that the children of moves into
        # it gain.
        options = [
            [(rng, loss, 0) for rng, loss in ((low, d), (high, 0)) if rng] if i in heavy
            else [((c,), 0, c * d) for c in light] if i in targets
            else [((0,), 0, 0)]
            for i, d in enumerate(valences)
        ]
        undecided = None
        for pattern in product(*options):
            children = sorted(moves - pattern[u][1] + pattern[w][2] for u in heavy for w in out[u])
            if children != wanted:
                continue
            ranges = [rng for rng, _, _ in pattern]
            if wanted2 is None:
                # g is graded, so each in-edge of a level-2 vertex leaves level 1.
                level2 = [x for w in out[r] for x in out[w]]
                wanted2 = sorted(map(level2.count, set(level2)))
                # Each move's key: 2 16^tail - 16^head.  A sum of two keys
                # has signed base-16 digits in -2..4, so it names the state
                # the two moves reach.
                keys = [[(2 << 4 * u) - (1 << 4 * w) for w in ws] for u, ws in enumerate(out)]
            # Without a level 2 the level-1 vertices are sinks, so a pattern
            # that passed level 1 has no grandchild.
            if wanted2 and _grandchild_in_degrees(out, keys, ranges, heavy, heavy | targets) != wanted2:
                continue
            if undecided is None:
                # Neither level test reads the light non-sinks that no heavy
                # vertex points to, so each vector holds them at 0 and leaves
                # them undecided.
                undecided = tuple((i, weights[i]) for i in free if cap and i not in heavy and i not in targets)
            # The last vertex varies slowest, so the pattern runs in index order.
            for c in map(_lowest_first, product(*reversed(ranges))):
                idx = sum(map(mul, c, weights))
                if idx >= limit:
                    break
                yield idx, c, undecided


def _hits(
    g: OrientedGraph, cap: int, limit: float = float("inf")
) -> Iterator[tuple[int, tuple[int, ...], tuple[tuple[int, int], ...], AssignmentGraph, IsoMapping]]:
    """(index, count vector, undecided, state graph, witness) per hit group
    below ``limit``, in no set order: a built base, which is its group's
    least member, that is isomorphic to its state graph.

    Each `_candidates` vector is the base of a group: itself with 0 or 1 on
    each undecided (vertex, index weight) pair.  A base is built with a
    budget of |V(g)| states.  If no move of its state graph feeds an
    undecided vertex, every vector of the group has the same rows (Fact B),
    the same verdict, witness and full traversability, so one hit stands
    for the whole group.  Otherwise the fed vertices f_1..f_m split the
    group: 0 on all of them stays with this build, and for each j, 1 on f_j
    and 0 on f_1..f_(j-1) is a new base with f_(j+1)..f_m and the unfed
    vertices undecided.  A base whose build passes the budget rules out its
    group, and so does every later base that dominates it (Fact A).  A
    group's completions may pass ``limit``; the caller expands them."""
    n = len(g.vertices)
    heads = [g.index(w) for _, w in g.edges]
    over: list[tuple[int, ...]] = []
    for base in _candidates(g, cap, limit):
        stack = [base]
        while stack:
            idx, counts, undecided = stack.pop()
            if over and any(all(map(ge, counts, o)) for o in over):
                continue
            try:
                ag = build(g, Assignment(g, counts), state_budget=n)
            except StateBudgetExceededError:
                over.append(counts)
                continue
            if undecided:
                fed = {heads[e] for e in ag.labels}
                split = [u for u in undecided if u[0] in fed]
                if split:
                    undecided = tuple(u for u in undecided if u[0] not in fed)
                    for j, (v, w) in enumerate(split):
                        if idx + w < limit:
                            stack.append((idx + w, _set_one(counts, v), undecided + tuple(split[j + 1 :])))
            iso = built_isomorphism(g, ag)
            if iso is not None:
                yield idx, counts, undecided, ag, iso


def _set_one(counts: tuple[int, ...], v: int) -> tuple[int, ...]:
    """``counts`` with 1 at position ``v``."""
    return (*counts[:v], 1, *counts[v + 1 :])


def _box_size(g: OrientedGraph, pebble_cap: int) -> int:
    """The number of ``g``'s assignments: 0..cap on each non-sink."""
    return (pebble_cap + 1) ** sum(map(bool, g.valences()))


def scan_graph_assignments(graphs: list[OrientedGraph], pebble_cap: int) -> tuple[list[Hit], int]:
    """One scan over the joint assignment space of ``graphs``: the hits in
    (graph position, index) order and the number of box indices covered.
    Only the graphs with a graded root, which alone can hit, are scanned,
    and each hit group is listed with its base's full traversability."""
    _check_cap(pebble_cap)
    hits = []
    for pos, g in enumerate(graphs):
        if g.graded_root() is None:
            continue
        for idx, counts, undecided, ag, _ in _hits(g, pebble_cap):
            group = [(idx, counts)]
            for v, w in undecided:
                group += [(i + w, _set_one(c, v)) for i, c in group]
            ft = ag.is_fully_traversable()
            hits += [(pos, i, c, ft) for i, c in group]
    # (graph position, index) is unique, so the sort never compares further.
    hits.sort()
    return hits, sum(_box_size(g, pebble_cap) for g in graphs)


def _orbit_minima(
    g: OrientedGraph, vectors: list[tuple[int, ...]], order: Sequence[int]
) -> list[tuple[int, ...]]:
    """Per vector of counts in vertex order, the least of its images under
    ``g``'s automorphisms, each read at the vertex indices ``order``."""
    images = [[g.index(w) for _, w in m.pairs] for m in automorphisms(g)]
    reads = [[image[i] for i in order] for image in images]
    return [min(tuple(vec[j] for j in read) for read in reads) for vec in vectors]


def reduce_modulo_automorphisms(
    g: OrientedGraph, vectors: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Keep one lexicographically-least representative per automorphism
    orbit, in first-seen order."""
    if not vectors:
        return []
    return list(dict.fromkeys(_orbit_minima(g, vectors, range(len(g.vertices)))))


def canonical_pair_key(
    g: OrientedGraph, counts: tuple[int, ...]
) -> tuple[bytes, tuple[int, ...]]:
    """A key equal across (graph, assignment) pairs exactly when some
    digraph isomorphism carries one assignment to the other."""
    form, order_names = canonical_labeling(g)
    return form, _orbit_minima(g, [counts], list(map(g.index, order_names)))[0]


@dataclass(frozen=True)
class ClassifiedPair:
    """A graph plus one assignment (valence-zero vertices normalized to a
    symbolic "any") whose state graph is isomorphic to the graph."""

    graph: OrientedGraph
    counts: tuple[int, ...]
    fully_traversable: bool

    def to_json_obj(self) -> dict:
        sinks = set(self.graph.sinks())
        return {
            "graph": format_graph(self.graph),
            "assignment": {
                v: ("any" if v in sinks else c)
                for v, c in zip(self.graph.vertices, self.counts)
            },
            "fully_traversable": self.fully_traversable,
        }

    def table_row(self) -> str:
        sinks = set(self.graph.sinks())
        cells = " ".join(
            f"{v}={'any' if v in sinks else c}"
            for v, c in zip(self.graph.vertices, self.counts)
        )
        shape = f"{len(self.graph.vertices)}v/{len(self.graph.edges)}e"
        ft = "ft" if self.fully_traversable else "not-ft"
        return f"{shape} {ft}  {cells}"


@dataclass
class ClassificationResult:
    pebble_cap: int
    vertex_cap: int | None
    pairs: list[ClassifiedPair]
    scanned: int
    stats: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        bounds: dict = {"pebble_cap": self.pebble_cap}
        if self.vertex_cap is not None:
            bounds["vertex_cap"] = self.vertex_cap
        return {
            "bounds": bounds,
            "scanned": self.scanned,
            "pairs": [p.to_json_obj() for p in self.pairs],
            "stats": self.stats,
        }

    def table(self) -> str:
        lines = [f"{len(self.pairs)} isomorphic pairs ({self.scanned} assignments scanned)"]
        lines += [f"  {p.table_row()}" for p in self.pairs]
        return "\n".join(lines) + "\n"


def _classify(
    graphs: list[OrientedGraph], pebble_cap: int, vertex_cap: int | None,
    ft_filter: bool | None,
) -> ClassificationResult:
    """Scan ``graphs`` and keep each graph's hits whose full traversability
    is ``ft_filter`` (any if ``None``), modulo its automorphisms."""
    hits, scanned = scan_graph_assignments(graphs, pebble_cap)
    ft_by_vec: list[dict[tuple[int, ...], bool]] = [{} for _ in graphs]
    for pos, _, vec, ft in hits:
        if ft_filter is None or ft == ft_filter:
            ft_by_vec[pos][vec] = ft
    pairs = [
        ClassifiedPair(g, vec, found[vec])
        for g, found in zip(graphs, ft_by_vec)
        for vec in reduce_modulo_automorphisms(g, list(found))
    ]
    return ClassificationResult(pebble_cap, vertex_cap, pairs, scanned)


def classify_downward_4_cycle(pebble_cap: int) -> ClassificationResult:
    """Every assignment on the downward 4-cycle (non-sink counts up to
    ``pebble_cap``, sink symbolic) whose state graph is isomorphic to the
    cycle, reduced modulo the cycle's order-2 symmetry."""
    if pebble_cap < 4:
        raise AssignmentError(f"pebble cap must be at least 4 to be convincing, got {pebble_cap}")
    return _classify([downward_cycle(4)], pebble_cap, None, None)


def search_isomorphic_pairs(
    vertex_cap: int, pebble_cap: int, ft_filter: bool | None = None
) -> ClassificationResult:
    """Scan every oriented graph up to ``vertex_cap`` vertices (one per
    isomorphism class) against every assignment with non-sink counts up to
    ``pebble_cap`` and keep the pairs isomorphic to their state graph."""
    _check_cap(pebble_cap)
    if vertex_cap < 1:
        raise GraphError(f"vertex cap must be at least 1, got {vertex_cap}")
    graphs = enumerate_oriented_graphs(vertex_cap)
    result = _classify(graphs, pebble_cap, vertex_cap, ft_filter)
    result.stats["graph_classes"] = len(graphs)
    return result

"""Independent brute-force oracles.

These deliberately avoid the library's algorithms: the state-space oracle is
a memoization-free recursion over move sequences, the isomorphism and
injection oracles try every vertex bijection or injection, and the cycle
oracle is a plain DFS.  Expected values frozen in the tests were computed
with these.

``reference_build`` is the earlier tuple-based ``build``, and
``reference_thm_2_1`` the earlier per-state passes of the diamond criterion
over its output: the packed-integer ``build`` and its thm-2.1 pass must
agree with them exactly.

``reference_enumerate_oriented_graphs`` is the earlier orientation sweep:
every choice of absent/forward/backward per vertex pair, in ``product``
order, kept when its canonical form is new.  The vertex-augmentation
enumeration must return the same graphs in the same order.

``reference_augment`` is the earlier augmentation step, which gave every
join of every parent a canonical key; ``generate._augment``, which keys only
the joins whose new vertex has the greatest degree pair, must return the
same sorted keys.

``reference_refine`` and ``reference_variable_order`` are the earlier color
refinement, which ran one extra round to confirm its fixpoint, and the
earlier variable order, which rescanned every unplaced vertex per placement.
``iso._refine`` and ``iso._variable_order`` must return exactly their lists.

``_source_distances`` is the level map the earlier ``canonical_labeling``
seeded its colors with: each vertex's shortest distance from a source.

``reference_graded_root`` reads the graded-root condition off those levels:
one source, every vertex at a finite level, and every edge one level down.
``OrientedGraph.graded_root`` must return the same vertex or ``None``.

``reference_is_downward_tree`` is the earlier tree test: n - 1 edges, one
source, no in-degree above 1, and a depth-first search from the source that
reaches every vertex.  ``OrientedGraph.is_downward_tree``, which reads
``graded_root`` on a graph with n - 1 edges, must return the same root or
``None``.

``reference_count_vectors`` is the earlier base conversion behind
``classify.iter_count_vectors``, which must yield exactly its sequence.

``reference_iter_assignments`` is the earlier per-graph scan order: each
``classify.iter_count_vectors`` vector scattered onto the non-sink vertices
of one reused list and passed through the checking ``Assignment``
constructor.  ``reference_scan`` numbers its assignments by it.

``reference_state_graph_isomorphism`` is the earlier pair test, which
counted the initial legal moves by listing them;
``classify.state_graph_isomorphism`` must return the same witness.

``reference_scan`` is the earlier box scan: every capped assignment, in
index order, through ``classify.state_graph_isomorphism``,
with a second build of each hit's state graph for its full traversability.
``classify.scan_graph_assignments``, which visits only the heavy-set vectors
of graded classes and builds each once, must return the same hits and the
same count.
``reference_scan_movers`` lists the box vectors that an isomorphism onto
the state graph does not yet rule out at the root's first two levels:
graded root by ``reference_graded_root``, listed legal moves as many as the
root's valence, each move's child, made by ``apply_move``, with listed
legal moves whose multiset equals that of the valences of the root's
out-neighbours, and the children's children, made the same way, with
parent counts whose multiset equals that of the in-degrees of the vertices
at ``_source_distances`` level 2.  ``scan_graph_assignments`` builds only
such vectors, none twice, and answers for each of them with a build of its
own, of a base that its moves leave unfed, or of a vector below it.

``reference_pruned_hits`` is the earlier per-vector walk behind every scan:
each vector of every pattern that passes the root-degree and level tests,
built one by one with ``classify._built_witness``.  ``classify._hits``,
which builds once per group of vectors that differ only on vertices no move
feeds and skips every vector above one with too many states, must return
the same hits, full traversability and witnesses.

``reference_thm_7_2_scan`` is the earlier thm-7.2 check, whose assignment
search walked the whole box in index order, stopping when ``search_budget``
assignments had been tried; it hands ``classify.state_graph_isomorphism``
every vector whose legal moves, counted directly, number the root's valence.
``theorems.verify_thm_7_2``, which builds only the ``classify._candidates``
among the first ``search_budget`` box indices and reports the least-index
hit, must return the same report.

``reference_built_isomorphism`` is the earlier direct test of a graph
against its built state graph, which named every state before comparing any
count; ``classify.built_isomorphism`` must return the same witness.

``reference_tree_assignment`` is the earlier ``tree_assignment``, which
looked up each vertex's valence by name and built a count dict;
``pebbling.tree_assignment``, which reads the cached valence list, must
return the same counts and raise the same errors.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product
from operator import mul

from pebblab import (
    Assignment,
    AssignmentError,
    BudgetExceededError,
    OrientedGraph,
    StateBudgetExceededError,
    VerificationReport,
    build,
    canonical_form,
    digraph_isomorphic,
    find_oriented_subgraph,
    format_assignment,
    oriented_complete_bipartite,
)
from pebblab.classify import (
    _built_witness,
    _grandchild_in_degrees,
    _heavy_sets,
    _lowest_first,
    built_isomorphism,
    iter_count_vectors,
    state_graph_isomorphism,
)
from pebblab.generate import _masks
from pebblab.iso import _least_choice_tuple


def naive_state_space(g: OrientedGraph, counts: tuple[int, ...]):
    """All reachable pebble distributions and labeled transitions, found by
    re-walking every move sequence with no deduplication of paths."""
    index = {v: i for i, v in enumerate(g.vertices)}
    edges = [(index[u], index[w], (u, w)) for u, w in g.edges]
    states: set[tuple[int, ...]] = set()
    transitions: set[tuple[tuple[int, ...], tuple[int, ...], tuple[str, str]]] = set()

    def walk(current: tuple[int, ...]) -> None:
        states.add(current)
        for iu, iw, label in edges:
            if current[iu] >= 2:
                child = list(current)
                child[iu] -= 2
                child[iw] += 1
                child = tuple(child)
                transitions.add((current, child, label))
                walk(child)

    walk(tuple(counts))
    return states, transitions


def brute_isomorphisms(g: OrientedGraph, h: OrientedGraph, directed: bool = True):
    """Every isomorphism found by trying all vertex bijections."""
    if len(g.vertices) != len(h.vertices):
        return []

    def edge(graph, u, w):
        if directed:
            return graph.has_edge(u, w)
        return graph.has_edge(u, w) or graph.has_edge(w, u)

    found = []
    gv, hv = g.vertices, h.vertices
    for perm in permutations(range(len(hv))):
        mapping = {gv[i]: hv[perm[i]] for i in range(len(gv))}
        if all(
            edge(g, u, w) == edge(h, mapping[u], mapping[w])
            for u in gv
            for w in gv
            if u != w
        ):
            found.append(mapping)
    return found


def brute_injections(g: OrientedGraph, h: OrientedGraph, induced: bool):
    """Every injective vertex map found by trying all ordered choices of
    targets.  Induced maps make the undirected shadows agree on every pair;
    the others carry every oriented edge of g onto an oriented edge of h."""
    gv, hv = g.vertices, h.vertices

    def shadow(graph, u, w):
        return graph.has_edge(u, w) or graph.has_edge(w, u)

    found = []
    for targets in permutations(range(len(hv)), len(gv)):
        mapping = {gv[i]: hv[targets[i]] for i in range(len(gv))}
        if induced:
            ok = all(
                shadow(g, u, w) == shadow(h, mapping[u], mapping[w])
                for u in gv
                for w in gv
                if u != w
            )
        else:
            ok = all(h.has_edge(mapping[u], mapping[w]) for u, w in g.edges)
        if ok:
            found.append(mapping)
    return found


def brute_downward_4_cycles(g: OrientedGraph):
    """All (A, B, C, D) diamonds found by checking every vertex quadruple."""
    out = []
    vs = g.vertices
    for a in vs:
        for b in vs:
            for c in vs:
                for d in vs:
                    if b != c and g.has_edge(a, b) and g.has_edge(a, c) \
                            and g.has_edge(b, d) and g.has_edge(c, d):
                        out.append((a, b, c, d))
    return out


def undirected_cycle_exists(g: OrientedGraph) -> bool:
    """DFS with parent tracking over the undirected shadow."""
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, w in g.edges:
        adj[u].add(w)
        adj[w].add(u)
    seen: set[str] = set()
    for start in g.vertices:
        if start in seen:
            continue
        stack = [(start, None)]
        seen.add(start)
        while stack:
            v, parent = stack.pop()
            for w in adj[v]:
                if w == parent:
                    continue
                if w in seen:
                    return True
                seen.add(w)
                stack.append((w, v))
    return False


class ReferenceAssignmentGraph:
    """State graph as plain tuples: ``states`` are count vectors and
    ``edges`` are (from_state, to_state, index into graph.edges)."""

    def __init__(self, graph, states, edges):
        self.graph = graph
        self.states = states
        self.edges = edges

    def state_label(self, state_id: int) -> str:
        return ",".join(map(str, self.states[state_id]))

    def labeled_edges(self):
        return tuple((f, t, self.graph.edges[e]) for f, t, e in self.edges)

    def successors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.states]
        for f, t, _ in self.edges:
            out[f].append(t)
        return out

    def to_dot(self) -> str:
        lines = ["digraph assignment_graph {"]
        for i in range(len(self.states)):
            lines.append(f'  s{i} [label="{self.state_label(i)}"];')
        rows = sorted((f, t, f"{u}->{w}") for f, t, (u, w) in self.labeled_edges())
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


def reference_build(graph: OrientedGraph, start: Assignment, state_budget: int = 10**6):
    """Breadth-first closure of ``start`` over count tuples, with one dict
    of every state seen."""
    if start.graph != graph:
        raise ValueError("assignment is bound to a different graph")
    if state_budget < 1:
        raise ValueError("state budget must be at least 1")

    index = graph.index
    edge_pairs = [(index(u), index(w)) for u, w in graph.edges]
    root = start.counts
    ids: dict[tuple[int, ...], int] = {root: 0}
    states: list[tuple[int, ...]] = [root]
    edges: list[tuple[int, int, int]] = []

    i = 0
    while i < len(states):
        counts = states[i]
        for ei, (f, t) in enumerate(edge_pairs):
            if counts[f] >= 2:
                child = list(counts)
                child[f] -= 2
                child[t] += 1
                key = tuple(child)
                sid = ids.get(key)
                if sid is None:
                    if len(states) >= state_budget:
                        raise StateBudgetExceededError(state_budget)
                    sid = len(states)
                    ids[key] = sid
                    states.append(key)
                edges.append((i, sid, ei))
        i += 1
    return ReferenceAssignmentGraph(graph, tuple(states), tuple(edges))


def reference_diamond_rooted_states(ag) -> list[bool]:
    """For each state: do two distinct children share a child?"""
    succs = ag.successors()
    out = [False] * len(ag.states)
    for sid, children in enumerate(succs):
        if len(children) < 2:
            continue
        seen: dict[int, int] = {}
        found = False
        for b in children:
            for d in succs[b]:
                prev = seen.get(d)
                if prev is None:
                    seen[d] = b
                elif prev != b:
                    found = True
                    break
            if found:
                break
        out[sid] = found
    return out


def reference_movable_side_states(ag, rule=None) -> list[bool]:
    """For each state: two movable vertices, or a 2-movable vertex holding
    at least four pebbles?  ``rule(movable, heavy)``, given the number of
    movable vertices and whether a 2-movable one holds four, replaces that
    test when it is passed."""
    g = ag.graph
    valences = [g.valence(v) for v in g.vertices]
    out = []
    for counts in ag.states:
        movable = 0
        heavy = False
        for c, val in zip(counts, valences):
            if c >= 2 and val >= 1:
                movable += 1
                if c >= 4 and val >= 2:
                    heavy = True
        out.append((movable >= 2 or heavy) if rule is None else rule(movable, heavy))
    return out


def reference_thm_2_1(ag, rule=None):
    """(verdict, stats, witness) of the diamond criterion on a reference
    state graph, as ``check_thm_2_1`` reports them; ``rule`` replaces the
    movable side as in ``reference_movable_side_states``."""
    diamond = reference_diamond_rooted_states(ag)
    movable = reference_movable_side_states(ag, rule)
    stats = {
        "states": len(ag.states),
        "edges": len(ag.edges),
        "contains_downward_4_cycle": any(diamond),
    }
    for sid, (lhs, rhs) in enumerate(zip(diamond, movable)):
        if lhs != rhs:
            witness = {
                "state": ag.state_label(sid),
                "diamond_rooted_here": lhs,
                "movable_condition_here": rhs,
            }
            return "counterexample", stats, witness
    return "holds", stats, None


def reference_enumerate_oriented_graphs(max_vertices: int, min_vertices: int = 1) -> list[OrientedGraph]:
    """All oriented graphs with ``min_vertices`` to ``max_vertices``
    vertices, one representative per isomorphism class.

    Generates every orientation choice (absent, forward, backward) per
    vertex pair and deduplicates by canonical form; feasible up to five or
    so vertices.
    """
    out: list[OrientedGraph] = []
    for n in range(min_vertices, max_vertices + 1):
        names = [f"v{i}" for i in range(n)]
        pairs = list(combinations(range(n), 2))
        seen: set[bytes] = set()
        for choice in product((0, 1, 2), repeat=len(pairs)):
            edges = []
            for (i, j), c in zip(pairs, choice):
                if c == 1:
                    edges.append((names[i], names[j]))
                elif c == 2:
                    edges.append((names[j], names[i]))
            g = OrientedGraph(names, edges)
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def reference_augment(keys: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """The sorted least choice tuples of the n-vertex classes, given those
    of the (n-1)-vertex classes, from every join of every parent."""
    new, bit = n - 1, 1 << (n - 1)
    found: set[tuple[int, ...]] = set()
    for key in keys:
        succ, pred = _masks(new, key)
        succ.append(0)
        pred.append(0)
        for joins in product((0, 1, 2), repeat=new):
            s, p = succ[:], pred[:]
            for i, c in enumerate(joins):
                if c == 1:
                    s[i] |= bit
                    p[new] |= 1 << i
                elif c == 2:
                    s[new] |= 1 << i
                    p[i] |= bit
            found.add(_least_choice_tuple(s, p))
    return sorted(found)


def reference_refine(out_adj: list[set[int]], in_adj: list[set[int]], colors: list[int]) -> list[int]:
    """Iterate neighborhood-multiset refinement to a fixpoint.

    Colors are ranks of structure-determined signatures, so they are
    invariant under relabeling and comparable across graphs refined in one
    combined universe.
    """
    n = len(colors)
    while True:
        sigs = []
        for v in range(n):
            so = tuple(sorted(colors[w] for w in out_adj[v]))
            si = tuple(sorted(colors[w] for w in in_adj[v]))
            sigs.append((colors[v], so, si))
        ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def reference_variable_order(n: int, g_out, g_in, colors: list[int]) -> list[int]:
    """Place connected, rare-colored vertices first."""
    color_count = Counter(colors)
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(range(n))
    while remaining:
        v = min(
            remaining,
            key=lambda u: (-len((g_out[u] | g_in[u]) & placed), color_count[colors[u]], u),
        )
        order.append(v)
        placed.add(v)
        remaining.discard(v)
    return order


def _source_distances(n: int, out_adj: list[set[int]], in_adj: list[set[int]]) -> list[int]:
    dist = [n + 1] * n
    frontier = [v for v in range(n) if not in_adj[v]]
    for v in frontier:
        dist[v] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for v in frontier:
            for w in out_adj[v]:
                if dist[w] > level:
                    dist[w] = level
                    nxt.append(w)
        frontier = nxt
    return dist


def reference_graded_root(g: OrientedGraph) -> str | None:
    n = len(g.vertices)
    out_adj = [{g.index(w) for w in g.out_neighbors(v)} for v in g.vertices]
    in_adj = [{g.index(u) for u in g.in_neighbors(v)} for v in g.vertices]
    dist = _source_distances(n, out_adj, in_adj)
    sources = [v for v in range(n) if not in_adj[v]]
    if len(sources) != 1 or any(d > n for d in dist):
        return None
    if any(dist[w] != dist[v] + 1 for v in range(n) for w in out_adj[v]):
        return None
    return g.vertices[sources[0]]


def reference_is_downward_tree(g: OrientedGraph) -> str | None:
    n = len(g.vertices)
    if n == 0 or len(g.edges) != n - 1:
        return None
    roots = [v for v in g.vertices if not g.in_neighbors(v)]
    if len(roots) != 1 or any(len(g.in_neighbors(v)) > 1 for v in g.vertices):
        return None
    root = roots[0]
    reached = {root}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for w in g.out_neighbors(v):
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return root if len(reached) == n else None


def reference_count_vectors(length: int, cap: int):
    base = cap + 1
    total = base**length
    for idx in range(total):
        x = idx
        vec = []
        for _ in range(length):
            vec.append(x % base)
            x //= base
        yield idx, tuple(vec)


def reference_built_isomorphism(g: OrientedGraph, ag):
    return digraph_isomorphic(g, ag.as_oriented_graph())


def reference_tree_assignment(tree: OrientedGraph, root_pebbles: int, leaf_pebbles=None) -> Assignment:
    root = tree.is_downward_tree()
    if root is None:
        raise AssignmentError("graph is not a downward directed rooted tree")
    if root_pebbles not in (2, 3):
        raise AssignmentError(f"root pebbles must be 2 or 3, got {root_pebbles}")
    leaf_pebbles = dict(leaf_pebbles or {})
    for v in leaf_pebbles:
        if tree.valence(v) != 0:
            raise AssignmentError(f"vertex {v!r} has non-zero valence, not a leaf count slot")
    counts = {}
    for v in tree.vertices:
        if v == root:
            counts[v] = root_pebbles
        elif tree.valence(v) >= 1:
            counts[v] = 1
        else:
            counts[v] = leaf_pebbles.get(v, 0)
    return Assignment(tree, counts)


def reference_iter_assignments(g: OrientedGraph, cap: int):
    non_sink = [i for i, v in enumerate(g.vertices) if g.valence(v) > 0]
    counts = [0] * len(g.vertices)
    for idx, vec in iter_count_vectors(len(non_sink), cap):
        for pos, c in zip(non_sink, vec):
            counts[pos] = c
        yield idx, Assignment(g, counts)


def reference_state_graph_isomorphism(g: OrientedGraph, a: Assignment):
    sources = g.sources()
    if len(sources) != 1 or len(a.legal_moves()) != g.valence(sources[0]):
        return None
    try:
        ag = build(g, a, state_budget=len(g.vertices))
    except StateBudgetExceededError:
        return None
    return built_isomorphism(g, ag)


def reference_scan(graphs: list[OrientedGraph], cap: int):
    hits, scanned = [], 0
    for pos, g in enumerate(graphs):
        for idx, a in reference_iter_assignments(g, cap):
            scanned += 1
            if state_graph_isomorphism(g, a) is not None:
                ft = build(g, a, state_budget=len(g.vertices)).is_fully_traversable()
                hits.append((pos, idx, a.counts, ft))
    return hits, scanned


def reference_scan_movers(graphs: list[OrientedGraph], cap: int):
    movers = []
    for pos, g in enumerate(graphs):
        root = reference_graded_root(g)
        if root is None:
            continue
        n = len(g.vertices)
        out_adj = [{g.index(w) for w in g.out_neighbors(v)} for v in g.vertices]
        in_adj = [{g.index(u) for u in g.in_neighbors(v)} for v in g.vertices]
        dist = _source_distances(n, out_adj, in_adj)
        wanted = sorted(g.valence(w) for w in g.out_neighbors(root))
        wanted_in = sorted(len(in_adj[v]) for v in range(n) if dist[v] == 2)
        for _, a in reference_iter_assignments(g, cap):
            moves = a.legal_moves()
            if len(moves) != g.valence(root):
                continue
            children = [a.apply_move(e) for e in moves]
            if sorted(len(b.legal_moves()) for b in children) != wanted:
                continue
            parents: dict[Assignment, set[Assignment]] = {}
            for b in children:
                for e in b.legal_moves():
                    parents.setdefault(b.apply_move(e), set()).add(b)
            if sorted(map(len, parents.values())) == wanted_in:
                movers.append((pos, a.counts))
    return movers


def reference_pruned_hits(g: OrientedGraph, cap: int, limit: float = float("inf")):
    """The earlier per-vector walk: (index, counts, state graph, witness) per
    vector that passes the root-degree and level tests, built one by one."""
    for idx, counts in _reference_candidates(g, cap, limit):
        found = _built_witness(g, Assignment(g, counts))
        if found:
            yield idx, counts, *found


def _reference_candidates(g: OrientedGraph, cap: int, limit: float):
    """The earlier ``classify._candidates``: every vector of each passing
    pattern, 0 or 1 on each light non-sink that no heavy vertex points to."""
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
            else [(light if i in nonzero else (0,), 0, 0)]
            for i, d in enumerate(valences)
        ]
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
            # The last vertex varies slowest, so the pattern runs in index order.
            for c in map(_lowest_first, product(*reversed(ranges))):
                idx = sum(map(mul, c, weights))
                if idx >= limit:
                    break
                yield idx, c


def reference_thm_7_2_scan(n: int, m: int, pebbles: int, search_cap: int, search_budget: int):
    params = {"n": n, "m": m, "pebbles": pebbles, "search_cap": search_cap}

    def report(verdict, what=" inside its own state graph", **kwargs):
        return VerificationReport("thm-7.2", f"K({n},{m}){what}", verdict, params=params, **kwargs)

    k_graph = oriented_complete_bipartite(n, m)
    ag = build(k_graph, Assignment(k_graph, {f"a{i}": pebbles for i in range(1, n + 1)}))
    g = ag.as_oriented_graph()
    stats = {"construction_vertices": len(g.vertices), "construction_edges": len(g.edges)}
    try:
        submap = find_oriented_subgraph(k_graph, g, search_budget)
    except BudgetExceededError as exc:
        stats[exc.resource] = exc.budget
        notes = ("the oriented-subgraph search hit its search budget",)
        return report("budget-exceeded", stats=stats, notes=notes)
    if submap is None:
        notes = ("the bipartite pattern does not occur as an oriented subgraph",)
        return report("counterexample", stats=stats, notes=notes)
    # The pair test's first exit, read off the vector: the construction is
    # graded, and an assignment whose legal moves do not number its root's
    # valence is never isomorphic.
    non_sink = [i for i, v in enumerate(g.vertices) if g.valence(v) > 0]
    valences = [g.valence(g.vertices[i]) for i in non_sink]
    root_moves = g.valence(g.sources()[0])
    scanned = 0
    for _, vec in iter_count_vectors(len(non_sink), search_cap):
        if scanned == search_budget:
            stats.update(assignments_scanned=scanned, search_budget=search_budget)
            return report("budget-exceeded", " construction", stats=stats)
        scanned += 1
        if sum(d for c, d in zip(vec, valences) if c >= 2) != root_moves:
            continue
        counts = [0] * len(g.vertices)
        for i, c in zip(non_sink, vec):
            counts[i] = c
        a = Assignment(g, counts)
        iso = state_graph_isomorphism(g, a)
        if iso is not None:
            stats["assignments_scanned"] = scanned
            witness = {
                "subgraph": submap.mapping,
                "assignment": a.as_dict(),
                "isomorphism": iso.to_json_obj()["map"],
            }
            return report("holds", witness=witness, stats=stats, instance_text=format_assignment(a))
    stats["assignments_scanned"] = scanned
    notes = (f"no isomorphic assignment with counts up to {search_cap}; absence beyond the cap unproven",)
    return report("budget-exceeded", stats=stats, notes=notes)

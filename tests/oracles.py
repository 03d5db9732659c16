"""Independent brute-force oracles.

These deliberately avoid the library's algorithms: the state-space oracle is
a memoization-free recursion over move sequences, the isomorphism and
injection oracles try every vertex bijection or injection, and the cycle
oracle is a plain DFS.  Expected values frozen in the tests were computed
with these.
"""

from __future__ import annotations

from itertools import permutations

from pebblab import OrientedGraph


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

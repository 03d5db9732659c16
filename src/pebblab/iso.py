"""Directed and undirected graph isomorphism, automorphism enumeration,
induced undirected embeddings, oriented subgraphs and canonical forms.

Every vertex-mapping search runs through one backtracking core,
``_backtrack``.  Its caller fixes the order in which g's vertices are placed
and the candidate targets of each; the core then extends a partial injective
map one vertex at a time, holding its place in lists rather than recursion,
so graphs of any depth fit.  An induced search needs g and h to agree on
adjacency among placed vertices, a subgraph search only needs each g edge to
land on an h edge.  Isomorphism searches confine candidates to color-refined
classes, or, when both graphs are out-trees, to the classes of their subtree
codes (``_tree_classes``).  On a forest those are refinement's classes, and
the search reads only the partition (class counts, class sizes and each
class's h vertices in index order), so it returns the same witnesses and
automorphism lists either way.  Embedding searches bound candidates by degree
and count every candidate tried against an expansion budget, raising
SearchBudgetExceededError when it runs out, so a missing result is never
mistaken for a proved absence.

One call skips the core: the first isomorphism between two out-trees
(``digraph_isomorphic``, ``isomorphism_onto_rows``).  Over tree classes the
search never backtracks, and its first witness pairs the roots and then,
top-down, each vertex's children with its image's children by subtree code
and index, so ``_tree_witness`` builds exactly that map in one pass.
Automorphism lists and every graph that is not an out-tree still search.

Witnesses come in four modes: ``"directed"`` and ``"undirected"``
isomorphisms, ``"induced-embedding"`` (g's shadow onto an induced subgraph of
h's shadow) and ``"subgraph"`` (every oriented edge of g onto an oriented edge
of h).  Each is re-verified by ``verify_mapping`` before it is returned;
``isomorphism_onto_rows``, which names no target graph, rechecks its
directed witness in index form instead.

Color refinement (``_refine``) densely relabels its input colors, then ranks
each vertex's (color, sorted out-neighbor colors, sorted in-neighbor colors)
signature until a round adds no color class.  That round would only rank the
colors it read, so it returns them without ranking, and dense stable input
comes back unchanged.  Lists of at most one neighbor skip the sort.

The search places next the unplaced vertex with the most placed neighbors,
then the smallest color class, then the lowest index (``_variable_order``).
It pops them from a heap of packed keys, one per vertex, pushing a vertex's
new key when a neighbor is placed and skipping the stale ones.

``canonical_labeling`` maps into no target graph, so it has its own search,
``_least_order``, which also keys enumeration in ``generate``: the ordering
with the least choice tuple, grown one position at a time over every tying
prefix.  True twins (equal out- and in-neighbours) are swapped by an
automorphism, so of the twins in a cell only the lowest-index one is tried.
That keeps stars and edgeless graphs small; other symmetric graphs still
hold every tying prefix (automorphism pruning would bound those).
Instances here stay small (a few dozen vertices), so a self-contained
search beats an external solver and keeps every witness auditable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, pairwise

from .errors import PebblabError, SearchBudgetExceededError
from .graphs import OrientedGraph

DEFAULT_EXPANSION_BUDGET = 10**6


@dataclass(frozen=True)
class IsoMapping:
    """A vertex mapping witnessing an isomorphism or embedding.

    ``mode`` is one of ``"directed"``, ``"undirected"``,
    ``"induced-embedding"`` or ``"subgraph"``; ``pairs`` lists (source,
    target) names in source-graph vertex order.
    """

    mode: str
    pairs: tuple[tuple[str, str], ...]

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    def to_json_obj(self) -> dict:
        return {"mode": self.mode, "map": {u: w for u, w in self.pairs}}


# -- adjacency and refinement ------------------------------------------------


def _directed_adj(g: OrientedGraph) -> tuple[list[set[int]], list[set[int]]]:
    n = len(g.vertices)
    index = g._index
    out: list[set[int]] = [set() for _ in range(n)]
    inn: list[set[int]] = [set() for _ in range(n)]
    for u, w in g.edges:
        iu, iw = index[u], index[w]
        out[iu].add(iw)
        inn[iw].add(iu)
    return out, inn


def _shadow_adj(g: OrientedGraph) -> list[set[int]]:
    n = len(g.vertices)
    index = g._index
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, w in g.edges:
        iu, iw = index[u], index[w]
        adj[iu].add(iw)
        adj[iw].add(iu)
    return adj


def _refine(out_adj, in_adj, colors: list) -> list[int]:
    """Iterate neighborhood-multiset refinement to a fixpoint.

    Colors are ranks of structure-determined signatures, so they are
    invariant under relabeling and comparable across graphs refined in one
    combined universe.  The input colors are first densely relabelled.  A
    signature starts with the vertex's own color, so each round refines the
    last one and its ranks keep the old color order; a round that adds no
    class would rank its signatures as the dense colors it read, so it
    returns those unranked.  A neighbor list of at most one color is
    already sorted.
    """
    ranks = {c: r for r, c in enumerate(sorted(set(colors)))}
    colors = [ranks[c] for c in colors]
    classes = len(ranks)
    while True:
        color = colors.__getitem__
        sigs = [
            (
                c,
                tuple(sorted(map(color, out)) if len(out) > 1 else map(color, out)),
                tuple(sorted(map(color, inn)) if len(inn) > 1 else map(color, inn)),
            )
            for c, out, inn in zip(colors, out_adj, in_adj)
        ]
        distinct = set(sigs)
        if len(distinct) == classes:
            return colors
        ranks = {s: r for r, s in enumerate(sorted(distinct))}
        colors = [ranks[s] for s in sigs]
        classes = len(ranks)


def _joint_colors(
    g_out: list[set[int]],
    g_in: list[set[int]],
    h_out: list[set[int]],
    h_in: list[set[int]],
) -> tuple[list[int], list[int]]:
    """Refine both graphs in one universe so colors match across them,
    starting from (out-degree, in-degree)."""
    n = len(g_out)
    shift = n.__add__
    out = g_out + [tuple(map(shift, s)) for s in h_out]
    inn = g_in + [tuple(map(shift, s)) for s in h_in]
    colors = _refine(out, inn, list(zip(map(len, out), map(len, inn))))
    return colors[:n], colors[n:]


def _tree_order(out_adj, in_adj) -> list[int] | None:
    """The vertices of an out-tree in breadth-first order from its root, or
    ``None`` unless exactly one vertex has no in-neighbor, every other has
    exactly one, and the root reaches every vertex."""
    sizes = list(map(len, in_adj))
    if sizes.count(0) != 1 or sum(sizes) != len(sizes) - 1:
        return None
    order = [sizes.index(0)]
    for v in order:
        order.extend(out_adj[v])
    return order if len(order) == len(sizes) else None


def _tree_classes(g_out, g_in, h_out, h_in) -> tuple[list[int], list[int]] | None:
    """The joint color classes of two out-trees from subtree codes, or
    ``None`` unless both graphs are out-trees.

    A vertex's code ranks the sorted codes of its children, and its class
    ranks the pair (its parent's class, its code), the root's parent being
    -1.  Both ranks come from dictionaries shared by g and h.  Color
    refinement's stable classes on a forest are its orbits, the vertices
    with equal root paths of codes, so these are the classes
    ``_joint_colors`` gives, under other numbers: every reader of the
    colors sees the same partition.  One pass each way, where refinement
    takes a round per level of depth.
    """
    g_order = _tree_order(g_out, g_in)
    h_order = _tree_order(h_out, h_in)
    if g_order is None or h_order is None:
        return None
    codes: dict[tuple[int, ...], int] = {(): 0}
    classes: dict[tuple[int, int], int] = {}
    found = []
    for out_adj, order in ((g_out, g_order), (h_out, h_order)):
        code = _subtree_codes(out_adj, order, codes)
        cls = [0] * len(order)
        cls[order[0]] = classes.setdefault((-1, code[order[0]]), len(classes))
        for v in order:
            c = cls[v]
            for w in out_adj[v]:
                cls[w] = classes.setdefault((c, code[w]), len(classes))
        found.append(cls)
    return found[0], found[1]


def _subtree_codes(out_adj, order, codes: dict[tuple[int, ...], int]) -> list[int]:
    """Per vertex of an out-tree in breadth-first ``order``, the rank in
    ``codes`` of the sorted codes of its children, a leaf's being 0; ranks
    are added to ``codes`` as they are first seen, so trees coded with one
    dictionary get equal codes exactly for isomorphic subtrees (Aho,
    Hopcroft and Ullman's tree isomorphism test)."""
    code = [0] * len(order)
    child_code = code.__getitem__
    for v in reversed(order):
        if out_adj[v]:
            code[v] = codes.setdefault(tuple(sorted(map(child_code, out_adj[v]))), len(codes))
    return code


def _tree_witness(g_out, g_in, h_out, h_in) -> list[list[int]] | None:
    """The first isomorphism the search over ``_tree_classes`` finds between
    two out-trees, built without a search, in ``_isomorphisms``' form; or
    ``None`` unless both graphs are out-trees.  Equal root codes decide
    whether one exists.

    The map pairs the roots, then, top-down, the children of each vertex
    with those of its image, the k-th by index among those of one code
    onto the k-th by index of that code.  That is the search's first
    witness.  The search first places s, the lowest-index vertex of the
    smallest class, a singleton as the root's class is.  A class (parent's
    class, code) holds at least as many vertices as its parent's class, so
    every vertex on s's root path is alone in its class too, and maps onto
    the one h vertex there, as it does here.  Each vertex placed after s has
    exactly one placed neighbor, and the search never backtracks: the parent
    of a placed vertex maps to its image's parent, and the children of one
    class under a placed vertex, placed in index order, take the unused
    children of its image in that class in index order.  Children of one
    vertex share their parent's class, so they share a class exactly when
    they share a code; on s's root path the child placed first is alone in
    its code, so it shifts no other child's place.
    """
    g_order = _tree_order(g_out, g_in)
    h_order = _tree_order(h_out, h_in) if g_order is not None else None
    if g_order is None or h_order is None:
        return None
    codes: dict[tuple[int, ...], int] = {(): 0}
    g_code = _subtree_codes(g_out, g_order, codes)
    h_code = _subtree_codes(h_out, h_order, codes)
    if g_code[g_order[0]] != h_code[h_order[0]]:
        return []
    n = len(g_order)
    image = [-1] * n
    image[g_order[0]] = h_order[0]
    for v in g_order:
        kids = g_out[v]
        if len(kids) == 1:
            (w,) = kids
            (image[w],) = h_out[image[v]]
        elif kids:
            # Sort both sides by the packed key code * n + index.
            g_keys = sorted([g_code[w] * n + w for w in kids])
            h_keys = sorted([h_code[y] * n + y for y in h_out[image[v]]])
            for a, b in zip(g_keys, h_keys):
                image[a % n] = b % n
    return [image]


# -- the backtracking core ----------------------------------------------------


def _variable_order(n: int, g_out, g_in, colors: list[int]) -> list[int]:
    """Place connected, rare-colored vertices first.

    The next vertex has the most placed neighbors, then the smallest color
    class, then the lowest index.  That triple is packed into one integer
    key, ``-placed_neighbors * n(n+1) + class_size * n + u``, which drops by
    ``n(n+1)`` for each neighbor placed.  Keys are distinct and name their
    vertex (``key % n == u``), so a heap that pushes each new key and skips
    the stale ones pops the vertices in that order.
    """
    color_count = Counter(colors)
    step = n * (n + 1)
    key = [color_count[c] * n + u for u, c in enumerate(colors)]
    heap = key.copy()
    heapify(heap)
    placed = [False] * n
    order: list[int] = []
    while heap:
        k = heappop(heap)
        v = k % n
        if k != key[v]:
            continue
        placed[v] = True
        order.append(v)
        for u in g_out[v] | g_in[v]:
            if not placed[u]:
                key[u] -= step
                heappush(heap, key[u])
    return order


def _backtrack(
    order, candidates, g_out, g_in, h_out, h_in, induced: bool, want_all: bool, budget: int | None = None
) -> list[list[int]]:
    """Injective maps of g's vertices into h's, as image lists indexed by g
    vertex: the first one found, or all of them with ``want_all``.

    g's vertices are placed in ``order``, each trying ``candidates[v]`` in
    list order.  A candidate fits when every placed out- and in-neighbor of
    ``v`` lands on an out- and in-neighbor of it; with ``induced`` the placed
    neighbors of the candidate must be exactly those images.  Every candidate
    tried counts as one expansion against ``budget``.
    """
    if len(order) > len(h_out):
        return []
    n = len(order)
    depth = {v: d for d, v in enumerate(order)}
    placed_out = [[u for u in g_out[v] if depth[u] < depth[v]] for v in range(n)]
    placed_in = [[u for u in g_in[v] if depth[u] < depth[v]] for v in range(n)]
    image = [-1] * n
    used: set[int] = set()
    results: list[list[int]] = []
    expansions = 0
    # The search holds its place in lists, not in recursion, so any depth
    # fits: order[d] tries the candidates left in untried[d] against the
    # images needs[d] its placed neighbors ask for.  Coming back to a depth
    # frees the image placed there before trying the next candidate.
    untried: list = [None] * n
    needs: list = [None] * n
    d = 0
    while d >= 0:
        if d == n:
            results.append(list(image))
            if not want_all:
                return results
            d -= 1
            continue
        v = order[d]
        x = image[v]
        if x < 0:
            tried = untried[d] = iter(candidates[v])
            need_out = {image[u] for u in placed_out[v]}
            need_in = {image[u] for u in placed_in[v]}
            needs[d] = need_out, need_in
        else:
            used.discard(x)
            image[v] = -1
            tried = untried[d]
            need_out, need_in = needs[d]
        for x in tried:
            if x in used:
                continue
            if budget is not None:
                expansions += 1
                if expansions > budget:
                    raise SearchBudgetExceededError(budget)
            if induced:
                fits = h_out[x] & used == need_out and h_in[x] & used == need_in
            else:
                fits = need_out <= h_out[x] and need_in <= h_in[x]
            if fits:
                image[v] = x
                used.add(x)
                d += 1
                break
        else:
            d -= 1
    return results


def _isomorphisms(g_out, g_in, h_out, h_in, want_all: bool) -> list[list[int]]:
    """Isomorphisms with every vertex confined to its joint color class:
    subtree-code classes for two out-trees, refined colors otherwise.  The
    first witness between two out-trees is matched without a search."""
    if not want_all:
        found = _tree_witness(g_out, g_in, h_out, h_in)
        if found is not None:
            return found
    gcols, hcols = _tree_classes(g_out, g_in, h_out, h_in) or _joint_colors(g_out, g_in, h_out, h_in)
    if sorted(gcols) != sorted(hcols):
        return []
    by_color: dict[int, list[int]] = {}
    for x, c in enumerate(hcols):
        by_color.setdefault(c, []).append(x)
    order = _variable_order(len(gcols), g_out, g_in, gcols)
    candidates = [by_color[c] for c in gcols]
    return _backtrack(order, candidates, g_out, g_in, h_out, h_in, True, want_all)


def _as_iso(g: OrientedGraph, h: OrientedGraph, image: list[int], mode: str) -> IsoMapping:
    pairs = tuple((g.vertices[i], h.vertices[image[i]]) for i in range(len(image)))
    witness = IsoMapping(mode, pairs)
    if not verify_mapping(g, h, witness):
        raise PebblabError("internal error: witness failed verification")
    return witness


def verify_mapping(g: OrientedGraph, h: OrientedGraph, witness: IsoMapping) -> bool:
    """Independent edge-by-edge recheck of a witness in its stated mode.

    The map must be injective, and a bijection for the two isomorphism
    modes.  It must carry g's edges onto exactly the h edges among its
    image, compared as undirected pairs for ``"undirected"`` and
    ``"induced-embedding"``; a ``"subgraph"`` map need only carry them into
    those h edges.
    """
    mapping = witness.mapping
    if len(mapping) != len(g.vertices) or any(v not in mapping for v in g.vertices):
        return False
    image = set(mapping.values())
    if len(image) != len(mapping) or any(t not in h for t in image):
        return False
    if witness.mode in ("directed", "undirected") and len(image) != len(h.vertices):
        return False
    carried = {(mapping[u], mapping[w]) for u, w in g.edges}
    among = {(x, y) for x, y in h.edges if x in image and y in image}
    if witness.mode == "subgraph":
        return carried <= among
    if witness.mode == "directed":
        return carried == among
    if witness.mode in ("undirected", "induced-embedding"):
        return {frozenset(e) for e in carried} == {frozenset(e) for e in among}
    return False


def _isomorphic(g: OrientedGraph, h: OrientedGraph, mode: str) -> IsoMapping | None:
    # Oriented graphs have no opposite edge pairs, so the shadows of g and
    # h have exactly len(g.edges) and len(h.edges) edges.
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return None
    if mode == "directed":
        g_out, g_in = _directed_adj(g)
        h_out, h_in = _directed_adj(h)
    else:
        g_out = g_in = _shadow_adj(g)
        h_out = h_in = _shadow_adj(h)
    found = _isomorphisms(g_out, g_in, h_out, h_in, want_all=False)
    return _as_iso(g, h, found[0], mode) if found else None


def digraph_isomorphic(g: OrientedGraph, h: OrientedGraph) -> IsoMapping | None:
    """A directed-isomorphism witness, or ``None`` if none exists."""
    return _isomorphic(g, h, "directed")


def isomorphism_onto_rows(g: OrientedGraph, offsets, targets) -> IsoMapping | None:
    """`digraph_isomorphic` onto the graph whose vertex i, named ``str(i)``,
    has the out-edges ``targets[offsets[i]:offsets[i+1]]``, without naming
    it: the same search on the same index sets finds the same witness.
    The witness is rechecked in index form."""
    flat = targets.tolist()
    h_out = [set(flat[lo:hi]) for lo, hi in pairwise(offsets.tolist())]
    h_in: list[set[int]] = [set() for _ in h_out]
    for x, row in enumerate(h_out):
        for y in row:
            h_in[y].add(x)
    g_out, g_in = _directed_adj(g)
    found = _isomorphisms(g_out, g_in, h_out, h_in, want_all=False)
    if not found:
        return None
    image = found[0]
    carried = {(image[u], image[w]) for u, row in enumerate(g_out) for w in row}
    rows = {(x, y) for x, row in enumerate(h_out) for y in row}
    if sorted(image) != list(range(len(h_out))) or carried != rows:
        raise PebblabError("internal error: witness failed verification")
    return IsoMapping("directed", tuple(zip(g.vertices, map(str, image))))


def undirected_isomorphic(g: OrientedGraph, h: OrientedGraph) -> IsoMapping | None:
    """A witness that the undirected shadows are isomorphic, or ``None``."""
    return _isomorphic(g, h, "undirected")


def automorphisms(g: OrientedGraph) -> list[IsoMapping]:
    """Every vertex bijection of ``g`` onto itself preserving oriented
    edges, in a deterministic order.  Contains the identity and, being all
    of them, is closed under composition and inverse."""
    g_out, g_in = _directed_adj(g)
    found = _isomorphisms(g_out, g_in, g_out, g_in, want_all=True)
    found.sort(key=tuple)
    return [_as_iso(g, g, image, "directed") for image in found]


# -- canonical labeling ------------------------------------------------------


def _least_order(succ: list[int], pred: list[int]) -> tuple[int, ...]:
    """A vertex ordering whose choice tuple is least over all orderings of a
    graph, given per-vertex out- and in-neighbour bitmasks.

    The tuple is row after row: position r's codes to positions r+1...  A
    state is an ordered prefix plus the remaining vertices as ordered cells,
    within which the order is still free.  Position r is taken from the
    first cell, and its row is least when each cell lists its codes sorted.
    A sorted cell is fixed by its counts of non-zero and of code-2 entries,
    fewer of each being less, and all surviving states have the same cell
    sizes, so rows compare as those counts.  Only the states that reach the
    least row survive, each cell split by code 0/1/2 in that order.  At
    most n! states arise; the first survivor's prefix is returned.

    True twins stay in one cell until placed, and swapping two of them
    maps a state's descendants onto the other's with equal rows.  So a
    vertex is not tried while a lower-index twin is in the cell: the least
    row is unchanged, and so is the first survivor, whose prefix never
    takes a twin ahead of a lower one.
    """
    n = len(succ)
    # Per vertex, its lower-index true twins: equal out- and in-masks.
    twins: dict[tuple[int, int], int] = {}
    lower = []
    for v, masks in enumerate(zip(succ, pred)):
        below = twins.get(masks, 0)
        lower.append(below)
        twins[masks] = below | 1 << v
    states: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ((1 << n) - 1,))]
    for _ in range(n):
        best = None
        chosen = []
        for prefix, cells in states:
            head = rest = cells[0]
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                if lower[v] & head:
                    continue
                s, p = succ[v], pred[v]
                row = []
                for cell in (head ^ bit, *cells[1:]):
                    twos = (p & cell).bit_count()
                    row.append((s & cell).bit_count() + twos)
                    row.append(twos)
                if best is None or row < best:
                    best, chosen = row, [(prefix, cells, bit, v)]
                elif row == best:
                    chosen.append((prefix, cells, bit, v))
        states = []
        for prefix, cells, bit, v in chosen:
            s, p = succ[v], pred[v]
            split = []
            for cell in (cells[0] ^ bit, *cells[1:]):
                for part in (cell & ~(s | p), cell & s, cell & p):
                    if part:
                        split.append(part)
            states.append((prefix + (v,), tuple(split)))
    return states[0][0]


def _choice_tuple(succ: list[int], pred: list[int], order) -> tuple[int, ...]:
    """Per pair of positions in ``order``: 0 no edge, 1 forward, 2 backward."""
    return tuple(
        1 if succ[u] >> w & 1 else 2 if pred[u] >> w & 1 else 0
        for u, w in combinations(order, 2)
    )


def _least_choice_tuple(succ: list[int], pred: list[int]) -> tuple[int, ...]:
    """The least choice tuple of a graph over all orderings of its vertices."""
    return _choice_tuple(succ, pred, _least_order(succ, pred))


def canonical_labeling(g: OrientedGraph) -> tuple[bytes, tuple[str, ...]]:
    """Canonical byte form plus one vertex ordering achieving it.

    The byte form is the vertex count (two bytes) followed by the least
    choice tuple, one byte per vertex pair; the names come in its ordering.
    Two graphs get equal bytes exactly when they are isomorphic: the tuple
    pins every edge, and the minimum is over all orderings.
    """
    n = len(g.vertices)
    index = g._index
    succ, pred = [0] * n, [0] * n
    for u, w in g.edges:
        iu, iw = index[u], index[w]
        succ[iu] |= 1 << iw
        pred[iw] |= 1 << iu
    order = _least_order(succ, pred)
    form = n.to_bytes(2, "big") + bytes(_choice_tuple(succ, pred, order))
    return form, tuple(g.vertices[v] for v in order)


def canonical_form(g: OrientedGraph) -> bytes:
    """Equal byte strings exactly for digraph-isomorphic graphs."""
    return canonical_labeling(g)[0]


# -- embeddings ----------------------------------------------------------------


def find_induced_undirected_embedding(
    g: OrientedGraph,
    h: OrientedGraph,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> IsoMapping | None:
    """An injective map of g's shadow onto an induced subgraph of h's
    shadow, or ``None`` once the search space is exhausted.

    Raises SearchBudgetExceededError when the expansion cap is hit, so a
    missing result is never mistaken for a proved absence.
    """
    g_adj = _shadow_adj(g)
    h_adj = _shadow_adj(h)
    order = _variable_order(len(g_adj), g_adj, g_adj, [0] * len(g_adj))
    candidates = [
        [x for x in range(len(h_adj)) if len(h_adj[x]) >= len(g_adj[v])] for v in range(len(g_adj))
    ]
    found = _backtrack(order, candidates, g_adj, g_adj, h_adj, h_adj, True, False, expansion_budget)
    return _as_iso(g, h, found[0], "induced-embedding") if found else None


def find_oriented_subgraph(
    g: OrientedGraph,
    h: OrientedGraph,
    expansion_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> IsoMapping | None:
    """An injective map carrying every edge of g onto an edge of h (g's
    non-edges may land anywhere), or ``None`` once the search space is
    exhausted.

    Raises SearchBudgetExceededError when the expansion cap is hit.
    """
    g_out, g_in = _directed_adj(g)
    h_out, h_in = _directed_adj(h)
    order = sorted(range(len(g_out)), key=lambda v: -(len(g_out[v]) + len(g_in[v])))
    candidates = [
        [
            x
            for x in range(len(h_out))
            if len(h_out[x]) >= len(g_out[v]) and len(h_in[x]) >= len(g_in[v])
        ]
        for v in range(len(g_out))
    ]
    found = _backtrack(order, candidates, g_out, g_in, h_out, h_in, False, False, expansion_budget)
    return _as_iso(g, h, found[0], "subgraph") if found else None

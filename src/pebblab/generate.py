"""Instance generators: exhaustive enumeration up to isomorphism and seeded
random families for property batches."""

from __future__ import annotations

import random
from itertools import combinations, product

from .errors import GraphError
from .graphs import OrientedGraph
from .iso import _least_choice_tuple, canonical_form
from .pebbling import Assignment


def enumerate_oriented_graphs(max_vertices: int, min_vertices: int = 1) -> list[OrientedGraph]:
    """All oriented graphs with ``min_vertices`` to ``max_vertices``
    vertices, one representative per isomorphism class.

    A graph on vertices 0..n-1 is encoded by its *choice tuple*: per pair
    (i, j) in ``combinations(range(n), 2)`` order, 0 if the pair carries no
    edge, 1 for i->j and 2 for j->i.  The n-vertex classes come from the
    (n-1)-vertex ones by vertex augmentation: a new vertex is joined to each
    old vertex in all 3^(n-1) ways (absent, out, in), and the results are
    deduplicated by a canonical key, the least choice tuple over all vertex
    orderings, kept in one set per size.

    As a cheap vertex-invariant test in the manner of McKay's canonical
    augmentation (*Isomorph-free exhaustive generation*, J. Algorithms 26
    (1998)), a candidate is keyed only when its new vertex has the greatest
    (total degree, out-degree) pair of the graph, ties allowed; about one
    candidate in five is.  The key set stays the same: every class G has a
    vertex v* whose pair is greatest, G - v* is isomorphic to some listed
    (n-1)-vertex representative H, and re-attaching v* to H by the matching
    joins gives a candidate that passes the test and is isomorphic to G.
    There is no canonical-deletion test, so the keys of a size are still
    held at once.

    Each representative is the class member whose choice tuple is least,
    named ``v0``... with edges in pair order, and each size's classes come
    in increasing order of that tuple, as a lexicographic sweep of all
    3^C(n,2) tuples would meet them first.  Six vertices (21,480 classes)
    take about a second.
    """
    if max_vertices < 0:
        raise GraphError(f"vertex cap must be non-negative, got {max_vertices}")
    out: list[OrientedGraph] = []
    keys: list[tuple[int, ...]] = [()]
    for n in range(max_vertices + 1):
        if n > 0:
            keys = _augment(keys, n)
        if n >= min_vertices:
            out.extend(_graph_from_choices(n, key) for key in keys)
    return out


def _masks(n: int, choices: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Bitmasks of each vertex's out- and in-neighbours, from the choice
    tuple of a graph on ``range(n)``."""
    succ, pred = [0] * n, [0] * n
    for (i, j), c in zip(combinations(range(n), 2), choices):
        if c == 1:
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        elif c == 2:
            succ[j] |= 1 << i
            pred[i] |= 1 << j
    return succ, pred


def _augment(keys: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """The sorted least choice tuples of the n-vertex classes, given those
    of the (n-1)-vertex classes.

    A vertex's (total degree, out-degree) pair ranks as ``degree * n +
    out``, which orders the pairs lexicographically since out < n.  Each
    join is tabled once as (rank of the new vertex, rank added to each old
    vertex, old vertices pointing at it, old vertices it points at); a
    candidate is keyed only when no old vertex outranks the new one.
    """
    new, bit = n - 1, 1 << (n - 1)
    joins = []
    for codes in product((0, 1, 2), repeat=new):
        ins = [i for i, c in enumerate(codes) if c == 1]
        outs = [i for i, c in enumerate(codes) if c == 2]
        rank = (len(ins) + len(outs)) * n + len(outs)
        bumps = tuple((0, n + 1, n)[c] for c in codes)
        joins.append((rank, bumps, ins, outs))
    found: set[tuple[int, ...]] = set()
    for key in keys:
        succ, pred = _masks(new, key)
        ranks = [(s | p).bit_count() * n + s.bit_count() for s, p in zip(succ, pred)]
        top = max(ranks, default=0)
        for rank, bumps, ins, outs in joins:
            if rank < top or max(map(int.__add__, ranks, bumps), default=0) > rank:
                continue
            s, p = succ[:], pred[:]
            for i in ins:
                s[i] |= bit
            for i in outs:
                p[i] |= bit
            s.append(sum(1 << i for i in outs))
            p.append(sum(1 << i for i in ins))
            found.add(_least_choice_tuple(s, p))
    return sorted(found)


def _graph_from_choices(n: int, choices: tuple[int, ...]) -> OrientedGraph:
    names = [f"v{i}" for i in range(n)]
    edges = []
    for (i, j), c in zip(combinations(range(n), 2), choices):
        if c == 1:
            edges.append((names[i], names[j]))
        elif c == 2:
            edges.append((names[j], names[i]))
    return OrientedGraph(names, edges)


def enumerate_downward_trees(max_vertices: int, min_vertices: int = 1) -> list[OrientedGraph]:
    """All downward directed rooted trees up to isomorphism.

    Built from parent arrays (vertex i > 0 attaches below some vertex j < i)
    rather than from orientation enumeration, so this is an independent
    source of the tree family.
    """
    out: list[OrientedGraph] = []
    for n in range(min_vertices, max_vertices + 1):
        names = [f"t{i}" for i in range(n)]
        seen: set[bytes] = set()
        for parents in product(*(range(i) for i in range(1, n))):
            g = OrientedGraph(names, ((names[p], names[i + 1]) for i, p in enumerate(parents)))
            key = canonical_form(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def random_oriented_graph(
    rng: random.Random,
    n: int,
    edge_probability: float = 0.5,
) -> OrientedGraph:
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i, j in combinations(range(n), 2):
        if rng.random() < edge_probability:
            if rng.random() < 0.5:
                edges.append((names[i], names[j]))
            else:
                edges.append((names[j], names[i]))
    return OrientedGraph(names, edges)


def random_downward_tree(rng: random.Random, n: int) -> OrientedGraph:
    names = [f"t{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    return OrientedGraph(names, edges)


# Skewed toward small counts so random state graphs stay desk-sized.
_COUNT_POOL = (0, 0, 0, 0, 1, 1, 2, 2, 3, 4, 5, 6)


def random_assignment(rng: random.Random, g: OrientedGraph, max_count: int = 6) -> Assignment:
    counts = [min(rng.choice(_COUNT_POOL), max_count) for _ in g.vertices]
    return Assignment(g, counts)

"""The color refinement and variable order of the isomorphism core against
their earlier versions in ``oracles``: equal lists, not just equal
partitions, and equal results from every entry point that uses them."""

from __future__ import annotations

import random

from pebblab import (
    SearchBudgetExceededError,
    automorphisms,
    build,
    canonical_labeling,
    digraph_isomorphic,
    find_induced_undirected_embedding,
    iso,
    random_downward_tree,
    random_oriented_graph,
    tree_assignment,
    undirected_isomorphic,
)
from pebblab.iso import _directed_adj, _joint_colors, _refine, _shadow_adj, _variable_order
from oracles import _source_distances, reference_refine, reference_variable_order


def _dense(keys):
    ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [ranks[k] for k in keys]


def _random_pairs(seed, count):
    """Seeded pairs on at most eight vertices: half relabelled copies, half
    independent draws of the same size.  Edge densities start at 0.2, since
    near-edgeless graphs on eight vertices have up to 8! automorphisms."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        g = random_oriented_graph(rng, n, rng.uniform(0.2, 1))
        if rng.random() < 0.5:
            names = list(g.vertices)
            shuffled = rng.sample(names, len(names))
            yield g, g.relabel(dict(zip(names, shuffled)))
        else:
            yield g, random_oriented_graph(rng, n, rng.uniform(0.2, 1))


def _tree_pairs(seed, count):
    """Seeded downward trees with the state graph of a thm-5.1 assignment."""
    rng = random.Random(seed)
    for _ in range(count):
        tree = random_downward_tree(rng, rng.randint(2, 8))
        a = tree_assignment(tree, rng.choice((2, 3)), {v: rng.randint(0, 4) for v in tree.sinks()})
        yield tree, build(tree, a).as_oriented_graph()


def _pairs():
    return [*_random_pairs(21, 250), *_tree_pairs(22, 60)]


def _joint_adjacency(g, h):
    g_out, g_in = _directed_adj(g)
    h_out, h_in = _directed_adj(h)
    n = len(g_out)
    out = g_out + [{w + n for w in s} for s in h_out]
    inn = g_in + [{w + n for w in s} for s in h_in]
    return out, inn


def test_refine_returns_the_reference_lists_on_dense_input():
    for g, h in _pairs():
        out, inn = _joint_adjacency(g, h)
        colors = _dense([(len(out[v]), len(inn[v])) for v in range(len(out))])
        expected = reference_refine(out, inn, colors)
        assert _refine(out, inn, colors) == expected
        assert _refine([tuple(s) for s in out], [tuple(s) for s in inn], colors) == expected
        n = len(g.vertices)
        assert _joint_colors(*_directed_adj(g), *_directed_adj(h)) == (expected[:n], expected[n:])
        shadow = _shadow_adj(g)
        colors = _dense([len(s) for s in shadow])
        assert _refine(shadow, shadow, colors) == reference_refine(shadow, shadow, colors)


def test_refine_returns_the_reference_lists_on_individualised_input():
    """Walk down the earlier canonical_labeling's search, individualising one
    vertex of the least color at each depth, and compare every refinement on
    the way."""
    rng = random.Random(23)
    for g, _ in _pairs():
        n = len(g.vertices)
        out, inn = _directed_adj(g)
        dist = _source_distances(n, out, inn)
        colors = _dense([(len(out[v]), len(inn[v]), dist[v]) for v in range(n)])
        colors = reference_refine(out, inn, colors)
        assert _refine(out, inn, colors) == colors
        unplaced = set(range(n))
        for d in range(n):
            least = min(colors[v] for v in unplaced)
            v = rng.choice(sorted(u for u in unplaced if colors[u] == least))
            unplaced.discard(v)
            refined = list(colors)
            refined[v] = -1 - d
            colors = reference_refine(out, inn, refined)
            assert _refine(out, inn, refined) == colors


def test_refine_returns_the_reference_lists_on_arbitrary_colors():
    rng = random.Random(24)
    for g, _ in _pairs():
        out, inn = _directed_adj(g)
        colors = [rng.choice((-7, -1, 0, 3, 40)) for _ in g.vertices]
        assert _refine(out, inn, colors) == reference_refine(out, inn, colors)


def test_refine_returns_stable_input_densely_relabelled():
    """A star and a directed 3-cycle whose input colors are already stable
    but not dense: the first round adds no class and returns the input
    ranked, in the input's color order."""
    out = [{1, 2, 3}, set(), set(), set(), {5}, {6}, {4}]
    inn = [set(), {0}, {0}, {0}, {6}, {4}, {5}]
    for colors, expected in (
        ([7, 3, 3, 3, 5, 5, 5], [2, 0, 0, 0, 1, 1, 1]),
        ([3, 40, 40, 40, -1, -1, -1], [1, 2, 2, 2, 0, 0, 0]),
    ):
        assert reference_refine(out, inn, colors) == expected
        assert _refine(out, inn, colors) == expected


def test_refine_reads_sets_and_tuples_of_every_length_alike():
    """Neighbor lists of 0, 1 and 2 vertices, as tuples and as sets.  Each
    half mirrors the other with its lists of two reversed (0 -> 1, 2 against
    4 -> 6, 5 and 8 <- 9, 10 against 12 <- 14, 13), so only sorting those
    lists keeps the mirror images in one class."""
    out_tuples = [(1, 2), (), (3,), (), (6, 5), (), (7,), (), (), (8,), (8,), (10,), (), (12,), (12,), (14,)]
    in_tuples = [(), (0,), (0,), (2,), (), (4,), (4,), (6,), (9, 10), (), (11,), (), (14, 13), (), (15,), ()]
    expected = [7, 1, 5, 0, 7, 1, 5, 0, 2, 3, 6, 4, 2, 3, 6, 4]
    out, inn = [set(t) for t in out_tuples], [set(t) for t in in_tuples]
    colors = [0] * 16
    assert reference_refine(out, inn, colors) == expected
    assert _refine(out, inn, colors) == expected
    assert _refine(out_tuples, in_tuples, colors) == expected


def test_variable_order_returns_the_reference_order():
    rng = random.Random(25)
    for g, h in _pairs():
        n = len(g.vertices)
        g_out, g_in = _directed_adj(g)
        gcols, _ = _joint_colors(g_out, g_in, *_directed_adj(h))
        shadow = _shadow_adj(g)
        for out, inn, colors in (
            (g_out, g_in, gcols),
            (shadow, shadow, [0] * n),
            (g_out, g_in, [rng.randrange(3) for _ in range(n)]),
        ):
            assert _variable_order(n, out, inn, colors) == reference_variable_order(n, out, inn, colors)


def _entry_point_results():
    rng = random.Random(26)
    results = []
    for g, h in _pairs():
        n = len(g.vertices)
        host = random_oriented_graph(rng, rng.randint(n, max(n, 8)), rng.random())
        try:
            embedding = find_induced_undirected_embedding(g, host, expansion_budget=20_000)
        except SearchBudgetExceededError:
            embedding = "budget exceeded"
        results.append(
            (
                digraph_isomorphic(g, h),
                undirected_isomorphic(g, h),
                automorphisms(g),
                canonical_labeling(g),
                embedding,
            )
        )
    return results


def test_entry_points_match_the_reference_refinement_and_order(monkeypatch):
    current = _entry_point_results()
    monkeypatch.setattr(iso, "_refine", reference_refine)
    monkeypatch.setattr(iso, "_variable_order", reference_variable_order)
    assert _entry_point_results() == current

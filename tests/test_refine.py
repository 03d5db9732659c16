"""The color refinement and variable order of the isomorphism core against
their earlier versions in ``oracles``: equal lists, not just equal
partitions, and equal results from every entry point that uses them.  The
out-tree classes from subtree codes against the refinement they bypass:
equal partitions, and equal results from every entry point."""

from __future__ import annotations

import random
from array import array
from functools import cache

from pebblab import (
    OrientedGraph,
    SearchBudgetExceededError,
    automorphisms,
    build,
    canonical_labeling,
    digraph_isomorphic,
    enumerate_downward_trees,
    find_induced_undirected_embedding,
    iso,
    random_downward_tree,
    random_oriented_graph,
    tree_assignment,
    undirected_isomorphic,
)
from pebblab.iso import (
    _directed_adj,
    _joint_colors,
    _refine,
    _shadow_adj,
    _tree_classes,
    _variable_order,
    isomorphism_onto_rows,
)
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


def _tree_pairs(seed, count, max_vertices=8):
    """Seeded downward trees with the state graph of a thm-5.1 assignment."""
    rng = random.Random(seed)
    for _ in range(count):
        tree = random_downward_tree(rng, rng.randint(2, max_vertices))
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


def _partition(gcols, hcols):
    """The classes of the joint universe, g's vertices first, as sorted
    blocks of indices: what the colors mean once their numbers are dropped."""
    blocks: dict[int, list[int]] = {}
    for x, c in enumerate(gcols + hcols):
        blocks.setdefault(c, []).append(x)
    return sorted(blocks.values())


def _relabelled(rng, g):
    names = list(g.vertices)
    return g.relabel(dict(zip(names, rng.sample(names, len(names)))))


@cache
def _enumerated_tree_pairs():
    """Every downward tree on at most 8 vertices, against a relabelled copy
    of itself and against three seeded trees of its size (fewer on 3
    vertices or less)."""
    rng = random.Random(27)
    by_size: dict[int, list[OrientedGraph]] = {}
    for tree in enumerate_downward_trees(8):
        by_size.setdefault(len(tree.vertices), []).append(tree)
    pairs = []
    for trees in by_size.values():
        for tree in trees:
            pairs.append((tree, _relabelled(rng, tree)))
            pairs.extend((tree, other) for other in rng.sample(trees, min(3, len(trees))))
    return pairs


def _rows(h):
    """``h``'s out-rows in the form ``isomorphism_onto_rows`` reads."""
    offsets, targets = array("I", [0]), array("I")
    for row in _directed_adj(h)[0]:
        targets.extend(sorted(row))
        offsets.append(len(targets))
    return offsets, targets


def test_tree_classes_partition_trees_as_refinement_does():
    pairs = _enumerated_tree_pairs()
    assert len({g for g, _ in pairs}) == 200
    for g, h in pairs:
        g_adj, h_adj = _directed_adj(g), _directed_adj(h)
        classes = _tree_classes(*g_adj, *h_adj)
        assert classes is not None
        assert _partition(*classes) == _partition(*_joint_colors(*g_adj, *h_adj))


def _tree_entry_point_results():
    results = []
    for g, h in [*_enumerated_tree_pairs(), *_tree_pairs(28, 60, max_vertices=24)]:
        results.append(
            (
                digraph_isomorphic(g, h),
                isomorphism_onto_rows(g, *_rows(h)),
                automorphisms(h),
            )
        )
    return results


def test_tree_entry_points_match_the_refinement_path(monkeypatch):
    taken = []
    real = iso._tree_classes

    def counted(*adj):
        found = real(*adj)
        taken.append(found is not None)
        return found

    monkeypatch.setattr(iso, "_tree_classes", counted)
    current = _tree_entry_point_results()
    assert all(taken)
    assert sum(result[0] is not None for result in current) > len(current) // 4
    monkeypatch.setattr(iso, "_tree_classes", lambda *adj: None)
    assert _tree_entry_point_results() == current


def test_tree_classes_refuse_graphs_that_are_not_out_trees():
    tree = OrientedGraph(["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("b", "c")])
    # A root over one leaf, beside a directed 3-cycle: one vertex has no
    # in-neighbor and every other has one, yet the root reaches two vertices.
    with_cycle = OrientedGraph(["r", "a", "x", "y", "z"], [("r", "a"), ("x", "y"), ("y", "z"), ("z", "x")])
    tree_adj = _directed_adj(tree)
    for adj in (_directed_adj(with_cycle), (_shadow_adj(tree),) * 2, _directed_adj(OrientedGraph([], []))):
        assert _tree_classes(*adj, *tree_adj) is None
        assert _tree_classes(*tree_adj, *adj) is None
    # A shadow with one isolated vertex and a matching has the tree's
    # in-degree pattern; its isolated vertex reaches only itself.
    matching = OrientedGraph(["i", "a", "b"], [("a", "b")])
    assert _tree_classes(*(_shadow_adj(matching),) * 2, *(_shadow_adj(matching),) * 2) is None
    assert _tree_classes(*tree_adj, *tree_adj) is not None


def test_tree_classes_keep_non_isomorphic_trees_apart():
    """Two six-vertex trees with equal out-degree multisets whose root
    branches have lengths 3 and 2 against 4 and 1."""
    names = ["r", "a", "b", "c", "d", "e"]
    g = OrientedGraph(names, [("r", "a"), ("r", "b"), ("a", "c"), ("b", "d"), ("c", "e")])
    h = OrientedGraph(names, [("r", "a"), ("r", "b"), ("a", "c"), ("c", "d"), ("d", "e")])
    gcols, hcols = _tree_classes(*_directed_adj(g), *_directed_adj(h))
    assert sorted(gcols) != sorted(hcols)
    assert digraph_isomorphic(g, h) is None
    assert isomorphism_onto_rows(g, *_rows(h)) is None
    assert digraph_isomorphic(g, g) is not None


def test_tree_classes_of_a_single_vertex():
    g = OrientedGraph(["v"], [])
    assert _tree_classes(*_directed_adj(g), *_directed_adj(g)) == ([0], [0])
    assert [w.pairs for w in automorphisms(g)] == [(("v", "v"),)]
    assert digraph_isomorphic(g, OrientedGraph(["w"], [])).pairs == (("v", "w"),)
    assert isomorphism_onto_rows(g, *_rows(g)).pairs == (("v", "0"),)

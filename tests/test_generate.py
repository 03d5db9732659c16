from __future__ import annotations

import hashlib
import random
from itertools import combinations, permutations

from pebblab import (
    OrientedGraph,
    canonical_form,
    canonical_labeling,
    enumerate_downward_trees,
    enumerate_oriented_graphs,
    random_assignment,
    random_downward_tree,
    random_oriented_graph,
)
from pebblab import generate, iso
from pebblab.generate import _augment, _least_choice_tuple, _masks
from pebblab.textio import format_graph
from conftest import star_tree
from oracles import brute_isomorphisms, reference_augment, reference_enumerate_oriented_graphs


def _brute_class_count(graphs):
    reps = []
    for g in graphs:
        if not any(brute_isomorphisms(g, r) for r in reps):
            reps.append(g)
    return len(reps)


def test_enumerate_oriented_graph_counts():
    # class counts cross-checked by pairwise brute-force isomorphism
    for n, expected in ((1, 1), (2, 2), (3, 7)):
        exact = enumerate_oriented_graphs(n, min_vertices=n)
        assert len(exact) == expected
        assert _brute_class_count(exact) == len(exact)
    assert len(enumerate_oriented_graphs(4, min_vertices=4)) == 42
    assert len(enumerate_oriented_graphs(4)) == 52


def test_enumeration_has_no_duplicates():
    graphs = enumerate_oriented_graphs(4)
    forms = [canonical_form(g) for g in graphs]
    assert len(set(forms)) == len(forms)


def _choice_tuple(g, order):
    """Per pair of positions in ``combinations`` order: 0 absent, 1 for the
    earlier vertex pointing at the later one, 2 for the reverse."""
    return tuple(
        1 if g.has_edge(u, w) else 2 if g.has_edge(w, u) else 0
        for u, w in combinations(order, 2)
    )


def _brute_least_choice_tuple(g):
    return min(_choice_tuple(g, order) for order in permutations(g.vertices))


def _least_key(g):
    return _least_choice_tuple(*_masks(len(g.vertices), _choice_tuple(g, g.vertices)))


def test_enumeration_matches_the_orientation_sweep():
    for max_vertices in range(5):
        for min_vertices in range(6):
            got = enumerate_oriented_graphs(max_vertices, min_vertices)
            want = reference_enumerate_oriented_graphs(max_vertices, min_vertices)
            assert [(g.vertices, g.edges) for g in got] == [(g.vertices, g.edges) for g in want]
    assert [(g.vertices, g.edges) for g in enumerate_oriented_graphs(0, 0)] == [((), ())]
    assert enumerate_oriented_graphs(2, 3) == []


def test_five_vertex_representatives_are_least_and_sorted():
    # what the sweep would keep, without running its 3^10 orientations
    graphs = enumerate_oriented_graphs(5, min_vertices=5)
    tuples = [_choice_tuple(g, g.vertices) for g in graphs]
    for g, t in zip(graphs, tuples):
        assert g.vertices == ("v0", "v1", "v2", "v3", "v4")
        assert t == _brute_least_choice_tuple(g)
    assert tuples == sorted(tuples)
    assert len({canonical_form(g) for g in graphs}) == len(graphs) == 582


def test_augmentation_keys_the_same_classes_as_keying_every_join():
    keys = [()]
    for n in range(1, 6):
        want = reference_augment(keys, n)
        assert _augment(keys, n) == want
        keys = want


def test_degree_rule_prunes_the_canonical_keys(monkeypatch):
    # Only joins whose new vertex has the greatest (degree, out-degree)
    # pair are keyed: 211 and 3,613 keys without the rule.
    calls = 0

    def counting(succ, pred):
        nonlocal calls
        calls += 1
        return _least_choice_tuple(succ, pred)

    monkeypatch.setattr(generate, "_least_choice_tuple", counting)
    enumerate_oriented_graphs(4)
    assert calls == 78
    calls = 0
    enumerate_oriented_graphs(5)
    assert calls == 985


def test_six_vertex_class_count_follows_oeis_a001174():
    # 582 at five vertices is checked above; a sweep would take hours here
    graphs = enumerate_oriented_graphs(6, min_vertices=6)
    assert len(graphs) == 21480
    text = "".join(format_graph(g) + "\n" for g in graphs)
    digest = "5f1bca37c2c1d73fbf2c0be3246dfaab20aca8926135ee7a77f8ef00e2183a86"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_least_choice_tuple_is_the_brute_force_minimum():
    rng = random.Random(11)
    for _ in range(300):
        g = random_oriented_graph(rng, rng.randint(0, 6), rng.uniform(0.1, 0.9))
        key = _least_key(g)
        assert key == _brute_least_choice_tuple(g)
        perm = list(g.vertices)
        rng.shuffle(perm)
        relabel = dict(zip(g.vertices, perm))
        h = OrientedGraph(g.vertices, ((relabel[u], relabel[w]) for u, w in g.edges))
        assert _least_key(h) == key


def test_canonical_form_is_the_count_and_the_least_choice_tuple():
    assert generate._least_choice_tuple is iso._least_choice_tuple
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(0, 7)
        g = random_oriented_graph(rng, n, rng.uniform(0.1, 0.9))
        form, order = canonical_labeling(g)
        assert form == n.to_bytes(2, "big") + bytes(_brute_least_choice_tuple(g))
        assert sorted(order) == sorted(g.vertices)
        assert form == n.to_bytes(2, "big") + bytes(_choice_tuple(g, order))


def _random_relabel(rng, g):
    names = list(g.vertices)
    shuffled = rng.sample(names, len(names))
    mapping = dict(zip(names, shuffled))
    return OrientedGraph(rng.sample(shuffled, len(shuffled)), ((mapping[u], mapping[w]) for u, w in g.edges))


def test_canonical_labeling_is_relabel_invariant_on_trees_and_stars():
    rng = random.Random(13)
    graphs = [random_downward_tree(rng, rng.randint(10, 24)) for _ in range(40)]
    graphs += [star_tree(k) for k in range(1, 8)]
    for g in graphs:
        form = canonical_form(g)
        for h in (g, _random_relabel(rng, g), _random_relabel(rng, g)):
            form_h, order_h = canonical_labeling(h)
            assert form_h == form == len(h.vertices).to_bytes(2, "big") + bytes(_choice_tuple(h, order_h))


def test_enumerate_downward_trees_counts():
    for n, expected in ((1, 1), (2, 1), (3, 2), (4, 4), (5, 9)):
        trees = enumerate_downward_trees(n, min_vertices=n)
        assert len(trees) == expected
        for t in trees:
            assert t.is_downward_tree() is not None
        if n <= 4:
            assert _brute_class_count(trees) == len(trees)


def test_trees_are_a_subset_of_the_enumeration():
    tree_forms = {canonical_form(t) for t in enumerate_downward_trees(4)}
    all_forms = {canonical_form(g) for g in enumerate_oriented_graphs(4)}
    assert tree_forms <= all_forms


def test_random_downward_tree_is_a_tree():
    rng = random.Random(3)
    for _ in range(50):
        t = random_downward_tree(rng, rng.randint(1, 12))
        assert t.is_downward_tree() is not None


def test_random_oriented_graph_is_oriented():
    rng = random.Random(4)
    for _ in range(50):
        g = random_oriented_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
        for u, w in g.edges:
            assert not g.has_edge(w, u)


def test_random_assignment_bounds():
    rng = random.Random(5)
    g = random_oriented_graph(rng, 6)
    for _ in range(20):
        a = random_assignment(rng, g, 6)
        assert all(0 <= c <= 6 for c in a.counts)


def test_generators_are_seed_deterministic():
    g1 = random_oriented_graph(random.Random(42), 7, 0.4)
    g2 = random_oriented_graph(random.Random(42), 7, 0.4)
    assert g1 == g2
    t1 = random_downward_tree(random.Random(42), 9)
    t2 = random_downward_tree(random.Random(42), 9)
    assert t1 == t2

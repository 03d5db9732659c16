from __future__ import annotations

import gc
import random
from itertools import combinations

import pytest

from pebblab import (
    BUDGET_EXCEEDED,
    Assignment,
    IsoMapping,
    OrientedGraph,
    SearchBudgetExceededError,
    automorphisms,
    build,
    canonical_form,
    digraph_isomorphic,
    downward_cycle,
    find_induced_undirected_embedding,
    find_oriented_subgraph,
    oriented_complete_bipartite,
    oriented_path,
    random_downward_tree,
    random_oriented_graph,
    simple_assignment,
    theorems,
    tree_assignment,
    undirected_isomorphic,
    verify_mapping,
)
from pebblab.iso import _backtrack, _directed_adj, _isomorphisms, _shadow_adj
from oracles import brute_injections, brute_isomorphisms


def _random_relabel(rng, g):
    names = list(g.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    return g.relabel(dict(zip(names, ("x" + s for s in shuffled))))


SMALL = [
    OrientedGraph(["a"]),
    OrientedGraph(["a", "b", "c"]),
    oriented_path(3),
    oriented_path(4),
    downward_cycle(4),
    oriented_complete_bipartite(1, 2),
    oriented_complete_bipartite(2, 2),
    OrientedGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]),
    OrientedGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
]


def test_digraph_isomorphic_matches_brute_force_on_pairs():
    for g in SMALL:
        for h in SMALL:
            witness = digraph_isomorphic(g, h)
            brute = brute_isomorphisms(g, h, directed=True)
            assert (witness is None) == (not brute), (g, h)
            if witness is not None:
                assert witness.mapping in brute


def test_undirected_isomorphic_matches_brute_force_on_pairs():
    for g in SMALL:
        for h in SMALL:
            witness = undirected_isomorphic(g, h)
            brute = brute_isomorphisms(g, h, directed=False)
            assert (witness is None) == (not brute), (g, h)


def test_iso_reflexive_and_relabel_invariant():
    rng = random.Random(5)
    for g in SMALL:
        self_witness = digraph_isomorphic(g, g)
        assert self_witness is not None
        relabeled = _random_relabel(rng, g)
        forward = digraph_isomorphic(g, relabeled)
        backward = digraph_isomorphic(relabeled, g)
        assert forward is not None and backward is not None


def test_directed_implies_undirected():
    rng = random.Random(6)
    for g in SMALL:
        h = _random_relabel(rng, g)
        if digraph_isomorphic(g, h) is not None:
            assert undirected_isomorphic(g, h) is not None


def test_state_graph_iso_examples():
    c4 = downward_cycle(4)
    sides = build(c4, Assignment(c4, {"l1": 2, "r1": 2})).as_oriented_graph()
    assert digraph_isomorphic(downward_cycle(4), sides) is not None
    rooted = build(c4, Assignment(c4, {"top": 2, "l1": 2})).as_oriented_graph()
    assert digraph_isomorphic(downward_cycle(4), rooted) is None


def test_undirected_examples():
    cyclic = OrientedGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assert digraph_isomorphic(downward_cycle(4), cyclic) is None
    assert undirected_isomorphic(downward_cycle(4), cyclic) is not None
    star_out = oriented_complete_bipartite(1, 2)
    assert undirected_isomorphic(oriented_path(3), star_out) is not None
    assert undirected_isomorphic(oriented_path(3), oriented_path(4)) is None


def test_automorphism_counts():
    # brute-force-validated group orders
    assert len(automorphisms(downward_cycle(4))) == 2
    assert len(automorphisms(oriented_path(4))) == 1
    assert len(automorphisms(oriented_complete_bipartite(2, 2))) == 4
    for g in SMALL:
        assert len(automorphisms(g)) == len(brute_isomorphisms(g, g, directed=True))


def test_automorphisms_form_a_group():
    for g in (downward_cycle(4), oriented_complete_bipartite(2, 2), OrientedGraph(["a", "b", "c"])):
        maps = [m.mapping for m in automorphisms(g)]
        identity = {v: v for v in g.vertices}
        assert identity in maps
        for m1 in maps:
            assert {w: u for u, w in m1.items()} in maps  # inverse
            for m2 in maps:
                assert {v: m2[m1[v]] for v in g.vertices} in maps  # composition


def test_witnesses_verify(instances):
    for name, g, a in instances:
        ag = build(g, a).as_oriented_graph()
        witness = undirected_isomorphic(ag, ag)
        assert witness is not None and verify_mapping(ag, ag, witness), name


def test_canonical_form_relabel_invariance():
    rng = random.Random(7)
    for g in SMALL:
        base = canonical_form(g)
        for _ in range(100):
            assert canonical_form(_random_relabel(rng, g)) == base


def test_canonical_form_separates_iso_classes():
    for g in SMALL:
        for h in SMALL:
            same = canonical_form(g) == canonical_form(h)
            assert same == (digraph_isomorphic(g, h) is not None), (g, h)


def test_canonical_form_examples():
    rng = random.Random(8)
    c6 = downward_cycle(6)
    assert canonical_form(_random_relabel(rng, c6)) == canonical_form(c6)
    assert canonical_form(downward_cycle(4)) != canonical_form(oriented_complete_bipartite(2, 2))
    e3a = OrientedGraph(["a", "b", "c"])
    e3b = OrientedGraph(["z", "q", "m"])
    assert canonical_form(e3a) == canonical_form(e3b)


def test_induced_embedding_examples():
    p3 = oriented_path(3)
    state_graph = build(p3, simple_assignment(p3, 2)).as_oriented_graph()
    witness = find_induced_undirected_embedding(p3, state_graph)
    assert witness is not None
    assert witness.mode == "induced-embedding"
    assert verify_mapping(p3, state_graph, witness)

    triangle = OrientedGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    c4 = downward_cycle(4)
    seven = build(c4, Assignment(c4, {"top": 4})).as_oriented_graph()
    assert find_induced_undirected_embedding(triangle, seven) is None  # bipartite host

    p2 = oriented_path(2)
    assert find_induced_undirected_embedding(p2, c4) is not None


def test_induced_embedding_respects_non_edges():
    # path into the 4-cycle: p3 is induced in c4's shadow
    p3 = oriented_path(3)
    c4 = downward_cycle(4)
    witness = find_induced_undirected_embedding(p3, c4)
    assert witness is not None
    # complete shadow triangle is not induced in a 4-cycle shadow
    tri = OrientedGraph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    assert find_induced_undirected_embedding(tri, c4) is None


def test_search_budget_raises():
    c4 = downward_cycle(4)
    seven = build(c4, Assignment(c4, {"top": 4})).as_oriented_graph()
    with pytest.raises(SearchBudgetExceededError):
        find_induced_undirected_embedding(oriented_path(4), seven, expansion_budget=3)


def test_iso_mapping_serialization():
    g = oriented_path(2)
    witness = digraph_isomorphic(g, g)
    assert witness.to_json_obj() == {"mode": "directed", "map": {"a1": "a1", "a2": "a2"}}


# -- differential checks of the backtracking core ------------------------------


def _random_pairs(seed, count):
    """Seeded (g, relabeled copy of g, unrelated graph) triples on at most six
    vertices, with g's vertices shuffled out of their index order."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_oriented_graph(rng, rng.randint(0, 5), rng.random())
        g = _random_relabel(rng, g)
        other = random_oriented_graph(rng, rng.randint(0, 6), rng.random())
        yield g, _random_relabel(rng, g), other


def _as_maps(g, h, images):
    return sorted(
        tuple(sorted((g.vertices[i], h.vertices[x]) for i, x in enumerate(image)))
        for image in images
    )


def test_isomorphism_entry_points_match_brute_force_on_random_graphs():
    for g, copy, other in _random_pairs(11, 120):
        for h in (copy, other):
            for directed, search in ((True, digraph_isomorphic), (False, undirected_isomorphic)):
                brute = brute_isomorphisms(g, h, directed=directed)
                witness = search(g, h)
                assert (witness is None) == (not brute), (g.edges, h.edges, directed)
                if witness is not None:
                    assert witness.mapping in brute
                    assert verify_mapping(g, h, witness)
        group = automorphisms(g)
        assert sorted(m.pairs for m in group) == sorted(
            tuple(b.items()) for b in brute_isomorphisms(g, g)
        )
        assert all(verify_mapping(g, g, m) for m in group)


def test_core_counts_every_isomorphism():
    for g, copy, other in _random_pairs(12, 60):
        for h in (copy, other):
            if len(g.vertices) != len(h.vertices):
                continue
            for directed, adj in ((True, _directed_adj), (False, lambda x: (_shadow_adj(x),) * 2)):
                found = _isomorphisms(*adj(g), *adj(h), want_all=True)
                brute = brute_isomorphisms(g, h, directed=directed)
                assert _as_maps(g, h, found) == sorted(tuple(sorted(b.items())) for b in brute)


def test_embedding_entry_points_match_brute_force_on_random_graphs():
    for g, _, h in _random_pairs(13, 150):
        for induced, search in (
            (True, find_induced_undirected_embedding),
            (False, find_oriented_subgraph),
        ):
            brute = brute_injections(g, h, induced=induced)
            witness = search(g, h)
            assert (witness is None) == (not brute), (g.edges, h.edges, induced)
            if witness is not None:
                assert witness.mode == ("induced-embedding" if induced else "subgraph")
                assert witness.mapping in brute
                assert verify_mapping(g, h, witness)


def test_core_counts_every_injection():
    for g, _, h in _random_pairs(14, 80):
        every = list(range(len(h.vertices)))
        order = list(range(len(g.vertices)))
        for induced, adj in ((True, lambda x: (_shadow_adj(x),) * 2), (False, _directed_adj)):
            found = _backtrack(order, [every] * len(order), *adj(g), *adj(h), induced, True)
            brute = brute_injections(g, h, induced=induced)
            assert _as_maps(g, h, found) == sorted(tuple(sorted(b.items())) for b in brute)


def _as_nx(g, cls):
    out = cls()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges)
    return out


def test_embeddings_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import DiGraphMatcher, GraphMatcher

    for g, _, h in _random_pairs(15, 200):
        mono = DiGraphMatcher(_as_nx(h, nx.DiGraph), _as_nx(g, nx.DiGraph)).subgraph_is_monomorphic()
        assert mono == (find_oriented_subgraph(g, h) is not None), (g.edges, h.edges)
        induced = GraphMatcher(_as_nx(h, nx.Graph), _as_nx(g, nx.Graph)).subgraph_is_isomorphic()
        assert induced == (find_induced_undirected_embedding(g, h) is not None), (g.edges, h.edges)


def test_digraph_isomorphic_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(18)
    for _ in range(400):
        n = rng.randint(0, 8)
        g = random_oriented_graph(rng, n, rng.random())
        copy = _random_relabel(rng, g)
        # An independent draw with g's edge count, so that the cheap size
        # checks rarely settle the answer.
        names = [f"w{i}" for i in range(n)]
        pairs = rng.sample(list(combinations(names, 2)), len(g.edges))
        other = OrientedGraph(names, [(u, w) if rng.random() < 0.5 else (w, u) for u, w in pairs])
        for h in (copy, other):
            expected = nx.is_isomorphic(_as_nx(g, nx.DiGraph), _as_nx(h, nx.DiGraph))
            assert (digraph_isomorphic(g, h) is not None) == expected, (g.edges, h.edges)


def test_canonical_form_classes_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    # Small graphs collide by chance; on seven and eight vertices, relabelled
    # copies make the collisions.
    graphs = [random_oriented_graph(rng, rng.randint(1, 6), rng.random()) for _ in range(400)]
    for _ in range(60):
        g = random_oriented_graph(rng, rng.randint(7, 8), rng.uniform(0.2, 1))
        graphs += [g, _random_relabel(rng, g)]
    by_form: dict[bytes, list[int]] = {}
    for i, g in enumerate(graphs):
        by_form.setdefault(canonical_form(g), []).append(i)
    by_nx: list[list[int]] = []
    for i, g in enumerate(graphs):
        mine = _as_nx(g, nx.DiGraph)
        for members in by_nx:
            if nx.is_isomorphic(mine, _as_nx(graphs[members[0]], nx.DiGraph)):
                members.append(i)
                break
        else:
            by_nx.append([i])
    assert len(by_form) == len(by_nx)
    assert sorted(by_form.values()) == sorted(by_nx)


def test_oriented_subgraph_budget_raises():
    with pytest.raises(SearchBudgetExceededError):
        find_oriented_subgraph(oriented_path(2), downward_cycle(4), expansion_budget=1)
    assert find_oriented_subgraph(oriented_path(2), downward_cycle(4), expansion_budget=2) is not None


def test_thm_7_2_reports_a_capped_subgraph_search_as_budget_exceeded(monkeypatch):
    def capped(g, h, expansion_budget=0):
        raise SearchBudgetExceededError(expansion_budget)

    monkeypatch.setattr(theorems, "find_oriented_subgraph", capped)
    assert theorems.verify_thm_7_2(1, 2).verdict == BUDGET_EXCEEDED


def test_subgraph_witness_that_drops_an_edge_is_rejected():
    p3, c4 = oriented_path(3), downward_cycle(4)
    good = IsoMapping("subgraph", (("a1", "top"), ("a2", "l1"), ("a3", "bottom")))
    assert verify_mapping(p3, c4, good)
    dropped = IsoMapping("subgraph", (("a1", "top"), ("a2", "l1"), ("a3", "r1")))
    assert not verify_mapping(p3, c4, dropped)


def test_verify_mapping_accepts_exactly_the_brute_force_maps():
    rng = random.Random(16)
    for g, copy, other in _random_pairs(17, 150):
        # The copy plus one edge: an isomorphism of g onto the copy still
        # carries g's edges into it, but is no longer an isomorphism.
        free = [(u, w) for u, w in combinations(copy.vertices, 2)
                if not copy.has_edge(u, w) and not copy.has_edge(w, u)]
        denser = OrientedGraph(copy.vertices, copy.edges + tuple(rng.sample(free, min(1, len(free)))))
        h = rng.choice((copy, other, denser))
        if len(g.vertices) > len(h.vertices):
            continue
        # Some maps may repeat a target, which every mode must reject.
        pick = rng.sample if rng.random() < 0.7 else lambda vs, k: rng.choices(vs, k=k)
        targets = pick(h.vertices, len(g.vertices))
        mapping = dict(zip(g.vertices, targets))
        for mode, brute in (
            ("directed", brute_isomorphisms(g, h, directed=True)),
            ("undirected", brute_isomorphisms(g, h, directed=False)),
            ("induced-embedding", brute_injections(g, h, induced=True)),
            ("subgraph", brute_injections(g, h, induced=False)),
        ):
            witness = IsoMapping(mode, tuple(mapping.items()))
            assert verify_mapping(g, h, witness) == (mapping in brute), (mode, g.edges, h.edges)


def test_searches_leave_no_reference_cycles():
    tree = random_downward_tree(random.Random(3), 20)
    state_graph = build(tree, tree_assignment(tree, 2)).as_oriented_graph()
    searches = [
        lambda: digraph_isomorphic(tree, state_graph),
        lambda: automorphisms(tree),
        lambda: find_oriented_subgraph(oriented_path(3), downward_cycle(4)),
        lambda: canonical_form(tree),
    ]
    gc.collect()
    gc.disable()
    try:
        for search in searches:
            assert search()
            assert gc.collect() == 0
    finally:
        gc.enable()

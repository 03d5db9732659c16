from __future__ import annotations

import random

import pytest

from pebblab import (
    BidirectionalEdgeError,
    DuplicateVertexError,
    GraphError,
    OrientedGraph,
    SelfLoopError,
    UnknownEndpointError,
    UnknownVertexError,
    cartesian_product,
    downward_cycle,
    oriented_complete_bipartite,
    oriented_path,
)
from pebblab.generate import enumerate_oriented_graphs, random_downward_tree, random_oriented_graph
from oracles import reference_graded_root, reference_is_downward_tree, undirected_cycle_exists


def test_single_vertex_graph():
    g = OrientedGraph(["a"])
    assert g.vertices == ("a",)
    assert g.edges == ()


def test_downward_4_cycle_by_hand():
    g = OrientedGraph(["r", "l", "s", "b"], [("r", "l"), ("r", "s"), ("l", "b"), ("s", "b")])
    assert g.valence("r") == 2
    assert g.valence("b") == 0
    assert g.sources() == ("r",)
    assert g.sinks() == ("b",)


def test_constructor_rejects_bidirectional_edge():
    with pytest.raises(BidirectionalEdgeError):
        OrientedGraph(["a", "b"], [("a", "b"), ("b", "a")])


def test_constructor_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        OrientedGraph(["a", "b"], [("a", "a")])


def test_constructor_rejects_duplicate_vertex():
    with pytest.raises(DuplicateVertexError):
        OrientedGraph(["a", "a"])


def test_constructor_rejects_unknown_endpoint():
    with pytest.raises(UnknownEndpointError):
        OrientedGraph(["a"], [("a", "b")])


PATH6 = [f"p{i}" for i in range(1, 7)]
PATH6_EDGES = list(zip(PATH6, PATH6[1:]))


@pytest.mark.parametrize(
    "bad, position, error, message",
    [
        (("p3", "zz"), 0, UnknownEndpointError, "edge endpoint 'zz' is not a declared vertex"),
        (("zz", "p1"), 2, UnknownEndpointError, "edge endpoint 'zz' is not a declared vertex"),
        (("p3", "zz"), 5, UnknownEndpointError, "edge endpoint 'zz' is not a declared vertex"),
        (("p4", "p4"), 0, SelfLoopError, "self-loop on vertex 'p4'"),
        (("p4", "p4"), 2, SelfLoopError, "self-loop on vertex 'p4'"),
        (("p4", "p4"), 5, SelfLoopError, "self-loop on vertex 'p4'"),
        # First, the reversed edge comes before p2 -> p3, which is then
        # the offender; in the middle and last it is the offender itself.
        (("p3", "p2"), 0, BidirectionalEdgeError, "edges in both directions between 'p2' and 'p3'"),
        (("p3", "p2"), 2, BidirectionalEdgeError, "edges in both directions between 'p3' and 'p2'"),
        (("p3", "p2"), 5, BidirectionalEdgeError, "edges in both directions between 'p3' and 'p2'"),
    ],
)
def test_constructor_names_the_first_offending_edge(bad, position, error, message):
    edges = PATH6_EDGES[:position] + [bad] + PATH6_EDGES[position:]
    with pytest.raises(error) as caught:
        OrientedGraph(PATH6, edges)
    assert str(caught.value) == message


def test_constructor_reports_the_earliest_of_several_errors():
    with pytest.raises(SelfLoopError, match="'p2'"):
        OrientedGraph(PATH6, [("p1", "p2"), ("p2", "p2"), ("p1", "zz"), ("p2", "p1")])
    with pytest.raises(BidirectionalEdgeError) as caught:
        OrientedGraph(PATH6, [("p1", "p2"), ("p1", "p2"), ("p2", "p1"), ("zz", "p1")])
    assert str(caught.value) == "edges in both directions between 'p2' and 'p1'"
    with pytest.raises(DuplicateVertexError) as caught:
        OrientedGraph(["a", "b", "b", "a"])
    assert str(caught.value) == "duplicate vertex 'b'"


def test_constructor_accepts_edges_as_pairs_of_any_kind():
    g = OrientedGraph(["a", "b", "c"], iter([["a", "b"], "bc", ("a", "c"), ["a", "b"]]))
    assert g.edges == (("a", "b"), ("b", "c"), ("a", "c"))
    assert g.out_neighbors("a") == ("b", "c")
    assert g.in_neighbors("c") == ("b", "a")


def test_duplicate_edges_collapse():
    g = OrientedGraph(["a", "b"], [("a", "b"), ("a", "b")])
    assert g.edges == (("a", "b"),)


def test_unknown_vertex_lookup():
    g = oriented_path(2)
    with pytest.raises(UnknownVertexError):
        g.valence("nope")


def test_valence_examples():
    c4 = downward_cycle(4)
    assert c4.valence("top") == 2
    assert c4.valence("bottom") == 0
    assert oriented_path(3).valence("a2") == 1


def test_valence_sums_to_edge_count(small_graphs):
    for _, g in small_graphs:
        assert sum(g.valence(v) for v in g.vertices) == len(g.edges)


def test_cached_facts_leave_the_graph_immutable_and_equal(small_graphs):
    for _, g in small_graphs:
        twin = OrientedGraph(g.vertices, g.edges)
        before = hash(g)
        sources, valences = g.sources(), tuple(g.valence(v) for v in g.vertices)
        root = g.graded_root()
        assert sources == tuple(v for v in g.vertices if all(w != v for _, w in g.edges))
        assert valences == tuple(sum(u == v for u, _ in g.edges) for v in g.vertices)
        assert g.valences() == valences and g.sources() is sources
        assert g == twin and hash(g) == before == hash(twin)
        with pytest.raises(AttributeError):
            g._sources = ()
        with pytest.raises(AttributeError):
            g._graded_root = None
        with pytest.raises(AttributeError):
            g.edges = ()
        assert g.sources() == sources and g.valences() == valences and g.graded_root() == root


def test_pickled_graph_is_equal_ordered_and_immutable(small_graphs):
    import pickle

    graphs = [g for _, g in small_graphs] + [downward_cycle(6), oriented_path(1)]
    for g in graphs:
        g.sources(), g.graded_root()  # a filled cache must not travel or break the copy
        data = pickle.dumps(g)
        assert data == pickle.dumps(OrientedGraph(g.vertices, g.edges))
        copy = pickle.loads(data)
        assert copy == g and hash(copy) == hash(g)
        assert copy.graded_root() == g.graded_root()
        assert copy.vertices == g.vertices and copy.edges == g.edges
        assert copy.sources() == g.sources() and copy.valences() == g.valences()
        with pytest.raises(AttributeError):
            copy.edges = ()


def test_graded_root_matches_the_source_distance_levels():
    graded: dict[int, int] = {}
    classes: dict[int, int] = {}
    for g in enumerate_oriented_graphs(5):
        n = len(g.vertices)
        root = g.graded_root()
        assert root == reference_graded_root(g), g
        classes[n] = classes.get(n, 0) + 1
        graded[n] = graded.get(n, 0) + (root is not None)
    assert (graded[4], classes[4]) == (5, 42)
    assert (graded[5], classes[5]) == (15, 582)


@pytest.mark.parametrize(
    "vertices, edges, root",
    [
        # One source, but the directed 3-cycle is out of its reach.
        (["s", "a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], None),
        (["s", "a", "b", "c"], [("s", "a"), ("a", "b"), ("b", "c"), ("c", "a")], None),
        # The transitive triangle: the edge s -> b skips a level.
        (["s", "a", "b"], [("s", "a"), ("a", "b"), ("s", "b")], None),
        (["v"], [], "v"),
        ([], [], None),
        (["a", "b"], [], None),
        (["top", "l1", "r1", "bottom"], [("top", "l1"), ("l1", "bottom"), ("top", "r1"), ("r1", "bottom")], "top"),
    ],
)
def test_graded_root_cases(vertices, edges, root):
    g = OrientedGraph(vertices, edges)
    assert g.graded_root() == root == reference_graded_root(g)
    assert g.graded_root() == root  # the cached answer


def test_sources_sinks_edgeless():
    g = OrientedGraph(["a", "b", "c"])
    assert g.sources() == ("a", "b", "c")
    assert g.sinks() == ("a", "b", "c")


def test_oriented_path_shape():
    g = oriented_path(3)
    assert g.vertices == ("a1", "a2", "a3")
    assert g.edges == (("a1", "a2"), ("a2", "a3"))
    assert oriented_path(1).edges == ()
    assert len(oriented_path(5).sources()) == 1
    assert len(oriented_path(5).sinks()) == 1
    with pytest.raises(GraphError):
        oriented_path(0)


def test_downward_cycle_shape():
    g = downward_cycle(6)
    assert len(g.vertices) == 6
    assert len(g.edges) == 6
    assert g.sources() == ("top",)
    assert g.sinks() == ("bottom",)
    assert g.underlying_has_cycle()
    with pytest.raises(GraphError):
        downward_cycle(5)
    with pytest.raises(GraphError):
        downward_cycle(2)


def test_complete_bipartite_shape():
    g = oriented_complete_bipartite(2, 2)
    assert len(g.edges) == 4
    assert g.underlying_has_cycle()
    assert oriented_complete_bipartite(1, 2).valence("a1") == 2
    assert oriented_complete_bipartite(2, 1).sinks() == ("b1",)
    with pytest.raises(GraphError):
        oriented_complete_bipartite(0, 1)


def test_underlying_cycle_matches_dfs_oracle(small_graphs):
    for name, g in small_graphs:
        assert g.underlying_has_cycle() == undirected_cycle_exists(g), name


def test_downward_tree_detection():
    assert oriented_path(4).is_downward_tree() == "a1"
    assert downward_cycle(4).is_downward_tree() is None
    two_edges = OrientedGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert two_edges.is_downward_tree() is None
    # right edge count but a cycle component beside the root
    trap = OrientedGraph(["r", "a", "b", "c"], [("r", "a")])
    assert trap.is_downward_tree() is None


def test_downward_tree_matches_the_depth_first_oracle():
    def check(g):
        reordered = OrientedGraph(reversed(g.vertices), g.edges)
        for h in (g, reordered):
            assert h.is_downward_tree() == reference_is_downward_tree(h), h

    for g in enumerate_oriented_graphs(5):
        check(g)
    check(OrientedGraph([]))
    rng = random.Random(2021)
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = random_oriented_graph(rng, n, rng.choice((0.15, 0.3, 0.5)))
        tree = random_downward_tree(rng, n)
        # Reversing one edge keeps n - 1 edges and mostly breaks the tree.
        flipped = list(tree.edges)
        if flipped:
            k = rng.randrange(len(flipped))
            flipped[k] = flipped[k][::-1]
        for h in (g, tree, OrientedGraph(tree.vertices, flipped)):
            names, edges = list(h.vertices), list(h.edges)
            rng.shuffle(names)
            rng.shuffle(edges)
            check(OrientedGraph(names, edges))


def test_cartesian_product_p2_p2_is_downward_4_cycle():
    from pebblab import digraph_isomorphic

    g = cartesian_product([oriented_path(2), oriented_path(2)])
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    assert digraph_isomorphic(g, downward_cycle(4)) is not None


def test_cartesian_product_single_factor_is_identity():
    p = oriented_path(4)
    assert cartesian_product([p]) == p


def test_cartesian_product_counts():
    g = cartesian_product([oriented_path(2), oriented_path(3)])
    assert len(g.vertices) == 6
    assert len(g.edges) == 7  # 1*3 + 2*2


def test_cartesian_product_count_formula(small_graphs):
    lookup = dict(small_graphs)
    factors = [lookup["path3"], lookup["k12"]]
    g = cartesian_product(factors)
    assert len(g.vertices) == 9
    expected_edges = len(factors[0].edges) * 3 + len(factors[1].edges) * 3
    assert len(g.edges) == expected_edges


def test_cartesian_product_rejects_empty():
    with pytest.raises(GraphError):
        cartesian_product([])
    with pytest.raises(GraphError):
        cartesian_product([OrientedGraph([])])


def test_relabel_preserves_structure():
    g = downward_cycle(4)
    h = g.relabel({v: v.upper() for v in g.vertices})
    assert h.vertices == ("TOP", "L1", "R1", "BOTTOM")
    assert h.has_edge("TOP", "L1")
    assert not h.has_edge("L1", "TOP")


def test_no_self_loops_or_two_cycles_in_families(small_graphs):
    for name, g in small_graphs:
        for u, w in g.edges:
            assert u != w, name
            assert not g.has_edge(w, u), name

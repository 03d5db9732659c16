from __future__ import annotations

import random

import pytest

from pebblab import (
    Assignment,
    AssignmentError,
    IllegalMoveError,
    OrientedGraph,
    downward_cycle,
    heavy_step_assignment,
    near_sink_assignment,
    oriented_complete_bipartite,
    oriented_path,
    product_assignment,
    simple_assignment,
    tree_assignment,
)
from pebblab.generate import enumerate_downward_trees
from conftest import star_tree
from oracles import reference_tree_assignment


def test_assignment_normalizes_absent_to_zero():
    g = oriented_path(3)
    a = Assignment(g, {"a1": 2})
    assert a.counts == (2, 0, 0)
    assert a["a3"] == 0
    assert a.total == 2


def test_assignment_rejects_negative_and_bad_length():
    g = oriented_path(2)
    with pytest.raises(AssignmentError):
        Assignment(g, [1, -1])
    with pytest.raises(AssignmentError):
        Assignment(g, [1, 1, 1])


def test_assignment_rejects_non_integer_counts():
    g = oriented_path(2)
    with pytest.raises(AssignmentError, match="'a1' must be an integer, got 2.9"):
        Assignment(g, [2.9, True])
    with pytest.raises(AssignmentError, match="'a2' must be an integer, got '3'"):
        Assignment(g, {"a2": "3"})
    with pytest.raises(AssignmentError, match="'a2' must be an integer, got None"):
        Assignment(g, [1, None])
    assert Assignment(g, [2, True]).counts == (2, 1)


def test_is_movable():
    c4 = downward_cycle(4)
    a = Assignment(c4, {"l1": 2, "bottom": 10})
    assert a.is_movable("l1")
    assert not a.is_movable("bottom")  # valence 0
    assert not a.is_movable("top")  # one pebble short of two
    assert not Assignment(c4, {"top": 1}).is_movable("top")


def test_is_n_movable():
    c4 = downward_cycle(4)
    a = Assignment(c4, {"top": 4, "l1": 2})
    assert a.is_n_movable("top", 2)
    assert not a.is_n_movable("l1", 2)  # valence 1
    for v in c4.vertices:
        assert a.is_n_movable(v, 1) == a.is_movable(v)
    with pytest.raises(AssignmentError):
        a.is_n_movable("top", 0)


def test_legal_moves():
    c4 = downward_cycle(4)
    sides = Assignment(c4, {"l1": 2, "r1": 2})
    assert sides.legal_moves() == (("l1", "bottom"), ("r1", "bottom"))
    assert Assignment(c4, [1, 1, 1, 1]).legal_moves() == ()
    root = Assignment(c4, {"top": 4})
    assert root.legal_moves() == (("top", "l1"), ("top", "r1"))


def test_apply_move():
    p3 = oriented_path(3)
    a = Assignment(p3, (2, 1, 5))
    b = a.apply_move(("a1", "a2"))
    assert b.counts == (0, 2, 5)
    assert b.total == a.total - 1
    c4 = downward_cycle(4)
    r = Assignment(c4, {"top": 4}).apply_move(("top", "l1"))
    assert r.counts == (2, 1, 0, 0)
    with pytest.raises(IllegalMoveError):
        Assignment(p3, (1, 0, 0)).apply_move(("a1", "a2"))
    with pytest.raises(IllegalMoveError):
        Assignment(p3, (2, 0, 0)).apply_move(("a1", "a3"))


def test_apply_move_drops_total_by_one(instances):
    for name, g, a in instances:
        for move in a.legal_moves():
            assert a.apply_move(move).total == a.total - 1, name


def test_move_commutation_independent_sources():
    k22 = oriented_complete_bipartite(2, 2)
    a = Assignment(k22, {"a1": 2, "a2": 2})
    m1, m2 = ("a1", "b1"), ("a2", "b2")
    assert a.apply_move(m1).apply_move(m2) == a.apply_move(m2).apply_move(m1)


def test_move_commutation_same_vertex_with_four():
    c4 = downward_cycle(4)
    a = Assignment(c4, {"top": 4})
    m1, m2 = ("top", "l1"), ("top", "r1")
    assert a.apply_move(m1).apply_move(m2) == a.apply_move(m2).apply_move(m1)


def test_simple_assignment():
    p3 = oriented_path(3)
    assert simple_assignment(p3, 2, 0).counts == (2, 1, 0)
    assert simple_assignment(oriented_path(2), 3, 5).counts == (3, 5)
    with pytest.raises(AssignmentError):
        simple_assignment(p3, 4, 0)
    with pytest.raises(AssignmentError):
        simple_assignment(downward_cycle(4), 2)
    with pytest.raises(AssignmentError):
        simple_assignment(oriented_path(1), 2)


def test_simple_assignment_single_movable_vertex():
    for n in (2, 3, 5):
        p = oriented_path(n)
        a = simple_assignment(p, 2)
        assert a.movable_vertices() == ("a1",)


def test_tree_assignment():
    p3 = oriented_path(3)
    assert tree_assignment(p3, 2).counts == simple_assignment(p3, 2, 0).counts
    star = star_tree(3)
    a = tree_assignment(star, 3, {v: 7 for v in star.sinks()})
    assert a.counts == (3, 7, 7, 7)
    with pytest.raises(AssignmentError):
        tree_assignment(downward_cycle(4), 2)
    with pytest.raises(AssignmentError):
        tree_assignment(p3, 5)
    with pytest.raises(AssignmentError):
        tree_assignment(star, 2, {"root": 1})


def test_tree_assignment_matches_its_oracle():
    rng = random.Random(2302)
    for tree in enumerate_downward_trees(7):
        for root_pebbles in (2, 3):
            leaves = {v: rng.randint(0, 9) for v in tree.sinks() if rng.random() < 0.7}
            got = tree_assignment(tree, root_pebbles, leaves)
            assert got.counts == reference_tree_assignment(tree, root_pebbles, leaves).counts
            assert got.graph is tree


def _raised(f, *args) -> tuple[type, str]:
    try:
        f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    raise AssertionError("no exception")


@pytest.mark.parametrize(
    "root_pebbles, leaves",
    [
        (2, {"nowhere": 1}),
        (2, {"root": 1}),
        (3, {"leaf1": 0, "root": 0}),
        (1, None),
        (4, None),
        (2, {"leaf1": -1}),
        (2, {"leaf2": 2.5}),
    ],
)
def test_tree_assignment_errors_match_its_oracle(root_pebbles, leaves):
    star = star_tree(3)
    want = _raised(reference_tree_assignment, star, root_pebbles, leaves)
    assert _raised(tree_assignment, star, root_pebbles, leaves) == want


def test_near_sink_assignment():
    p3 = oriented_path(3)
    a = near_sink_assignment(p3, 4, sink_pebbles=6, fill=1)
    assert a.counts == (1, 4, 6)
    assert near_sink_assignment(oriented_path(2), 2).counts == (2, 0)
    with pytest.raises(AssignmentError):
        near_sink_assignment(p3, -1)
    with pytest.raises(AssignmentError):
        near_sink_assignment(p3, 4, fill=2)


def test_heavy_step_assignment():
    p4 = oriented_path(4)
    a = heavy_step_assignment(p4, position=1, heavy=4, sink_pebbles=0, fill=0)
    assert a.counts == (4, 0, 0, 0)
    b = heavy_step_assignment(p4, position=2, heavy=5, fill=1)
    assert b.counts == (1, 5, 0, 0)
    with pytest.raises(AssignmentError):
        heavy_step_assignment(p4, position=3, heavy=4)  # following vertex is the sink
    with pytest.raises(AssignmentError):
        heavy_step_assignment(p4, position=1, heavy=6)


def test_heavy_step_assignment_per_vertex_fill():
    p5 = oriented_path(5)
    a = heavy_step_assignment(p5, position=2, heavy=4, fill={"a1": 0, "a4": 1})
    assert a.counts == (0, 4, 0, 1, 0)


def test_product_assignment_two_squares():
    p2 = oriented_path(2)
    g, a = product_assignment([(p2, simple_assignment(p2, 2))] * 2)
    counts = a.as_dict()
    assert counts == {"a1,a1": 0, "a1,a2": 2, "a2,a1": 2, "a2,a2": 0}
    g3, a3 = product_assignment([(p2, simple_assignment(p2, 3))] * 2)
    assert sorted(a3.counts) == [0, 0, 3, 3]


def test_product_assignment_single_factor_identity():
    p3 = oriented_path(3)
    a = simple_assignment(p3, 2)
    g, prod_a = product_assignment([(p3, a)])
    assert g == p3
    assert prod_a.counts == a.counts
    # the all-sinks vertex is governed by the explicit shared count
    _, with_sink = product_assignment([(p3, simple_assignment(p3, 2, 4))], shared_sink=4)
    assert with_sink.counts == simple_assignment(p3, 2, 4).counts


def test_product_assignment_shared_sink_and_fill():
    p2 = oriented_path(2)
    g, a = product_assignment(
        [(p2, simple_assignment(p2, 2))] * 2, shared_sink=9, fill=1
    )
    assert a["a2,a2"] == 9
    assert a["a1,a1"] == 1
    with pytest.raises(AssignmentError):
        product_assignment([(p2, simple_assignment(p2, 2))] * 2, fill=3)


def test_product_assignment_rejects_foreign_assignment():
    p2, p3 = oriented_path(2), oriented_path(3)
    with pytest.raises(AssignmentError):
        product_assignment([(p2, simple_assignment(p3, 2))])


def test_tree_assignment_matches_classification_shape():
    tree = star_tree(2)
    a = tree_assignment(tree, 2)
    assert a["root"] in (2, 3)
    for v in tree.vertices:
        if tree.valence(v) >= 1 and v != "root":
            assert a[v] == 1
        if tree.valence(v) == 0:
            assert a[v] == 0


def test_assignment_text_round_trip():
    from pebblab import format_assignment, parse_graph_text

    g = OrientedGraph(["x", "y"], [("x", "y")])
    a = Assignment(g, {"x": 2})
    g2, a2 = parse_graph_text(format_assignment(a))
    assert g2 == g
    assert a2.counts == a.counts

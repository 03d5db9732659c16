from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pebblab import theorems
from pebblab import (
    Assignment,
    OrientedGraph,
    downward_cycle,
    oriented_complete_bipartite,
    oriented_path,
    product_assignment,
    simple_assignment,
    tree_assignment,
)


def star_tree(leaves: int) -> OrientedGraph:
    names = ["root"] + [f"leaf{i}" for i in range(1, leaves + 1)]
    return OrientedGraph(names, (("root", leaf) for leaf in names[1:]))


def five_vertex_tree() -> OrientedGraph:
    return OrientedGraph(
        ["r", "x", "y", "z", "w"],
        [("r", "x"), ("x", "y"), ("r", "z"), ("z", "w")],
    )


def corpus_instances() -> list[tuple[str, OrientedGraph, Assignment]]:
    """Named (graph, assignment) instances reused across property suites."""
    p3 = oriented_path(3)
    p5 = oriented_path(5)
    c4 = downward_cycle(4)
    c6 = downward_cycle(6)
    k12 = oriented_complete_bipartite(1, 2)
    k22 = oriented_complete_bipartite(2, 2)
    star = star_tree(3)
    tree5 = five_vertex_tree()
    prod22_g, prod22_a = product_assignment(
        [(oriented_path(2), simple_assignment(oriented_path(2), 2))] * 2
    )
    cube_g, cube_a = product_assignment(
        [(oriented_path(2), simple_assignment(oriented_path(2), 2))] * 3
    )
    return [
        ("path3-simple", p3, simple_assignment(p3, 2)),
        ("path3-heavy-source", p3, Assignment(p3, {"a1": 4})),
        ("path5-simple", p5, simple_assignment(p5, 3, 2)),
        ("cycle4-root4", c4, Assignment(c4, {"top": 4})),
        ("cycle4-sides-4-2", c4, Assignment(c4, {"l1": 4, "r1": 2})),
        ("cycle4-root-and-side", c4, Assignment(c4, {"top": 2, "l1": 2})),
        ("cycle4-family-22", c4, Assignment(c4, {"l1": 2, "r1": 2})),
        ("cycle4-family-23", c4, Assignment(c4, {"l1": 2, "r1": 3, "bottom": 1})),
        ("cycle6-top4", c6, Assignment(c6, {"top": 4, "l1": 1, "r1": 1})),
        ("k12-source2", k12, Assignment(k12, {"a1": 2})),
        ("k22-sources", k22, Assignment(k22, {"a1": 2, "a2": 2})),
        ("star3-root3", star, tree_assignment(star, 3, {v: 7 for v in star.sinks()})),
        ("tree5-root2", tree5, tree_assignment(tree5, 2)),
        ("product-2x2", prod22_g, prod22_a),
        ("cube-2x2x2", cube_g, cube_a),
    ]


def corpus_small_graphs() -> list[tuple[str, OrientedGraph]]:
    """Graphs with at most 6 vertices, used for exhaustive cross-checks."""
    from pebblab import cartesian_product

    return [
        ("path1", oriented_path(1)),
        ("path3", oriented_path(3)),
        ("path4", oriented_path(4)),
        ("cycle4", downward_cycle(4)),
        ("cycle6", downward_cycle(6)),
        ("k12", oriented_complete_bipartite(1, 2)),
        ("k22", oriented_complete_bipartite(2, 2)),
        ("star3", star_tree(3)),
        ("tree5", five_vertex_tree()),
        ("prod-2x3", cartesian_product([oriented_path(2), oriented_path(3)])),
    ]


@pytest.fixture
def instances():
    return corpus_instances()


@pytest.fixture
def small_graphs():
    return corpus_small_graphs()


@pytest.fixture
def decided_classes(monkeypatch):
    """A list with one entry per call of ``theorems._movable_side``, which
    ``check_thm_2_1`` calls once per threshold class it decides."""
    calls = []
    real = theorems._movable_side

    def counting(movable, heavy):
        calls.append((movable, heavy))
        return real(movable, heavy)

    monkeypatch.setattr(theorems, "_movable_side", counting)
    return calls

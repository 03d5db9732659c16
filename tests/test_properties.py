"""Property tests: ``build`` and the thm-2.1 pass against the oracles, the
fact the thm-2.1 pass decides each threshold class by, and the two facts
the assignment scan's grouped builds rest on, on oriented graphs drawn by
hypothesis.

Runs derandomized and without an example database, so every run checks the
same examples.
"""

from __future__ import annotations

from itertools import product
from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from pebblab import Assignment, OrientedGraph, build, check_thm_2_1
from oracles import (
    naive_state_space,
    reference_build,
    reference_diamond_rooted_states,
    reference_movable_side_states,
    reference_thm_2_1,
)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def instances(draw, max_vertices=5, max_count=3, max_total=8):
    """An oriented graph on at most ``max_vertices`` vertices (each pair
    joined one way, the other way, or not at all) and a pebble vector."""
    n = draw(st.integers(0, max_vertices))
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            way = draw(st.sampled_from((None, (i, j), (j, i))))
            if way is not None:
                edges.append((names[way[0]], names[way[1]]))
    g = OrientedGraph(names, draw(st.permutations(edges)))
    counts = draw(
        st.lists(st.integers(0, max_count), min_size=n, max_size=n).filter(
            lambda c: sum(c) <= max_total
        )
    )
    return g, Assignment(g, counts)


@PROPERTY_SETTINGS
@given(instances())
def test_build_matches_naive_state_space(instance):
    g, a = instance
    ag = build(g, a)
    states, transitions = naive_state_space(g, a.counts)
    assert set(ag.states) == states
    labelled = {(ag.states[f], ag.states[t], g.edges[e]) for f, t, e in ag.edges}
    assert labelled == transitions
    assert len(ag.edges) == len(transitions)


@PROPERTY_SETTINGS
@given(instances(max_count=5, max_total=14))
def test_check_thm_2_1_matches_reference(instance):
    g, a = instance
    report = check_thm_2_1(g, a)
    want = reference_thm_2_1(reference_build(g, a))
    assert (report.verdict, report.stats, report.witness) == want


@PROPERTY_SETTINGS
@given(instances(max_vertices=6, max_count=5, max_total=12))
def test_threshold_class_fixes_both_sides(instance):
    # Fact C', which check_thm_2_1 decides each class by: reachable states
    # with the same set T of vertices with an out-edge holding at least 2,
    # the same vertices of T holding at least 4, and the same non-sink heads
    # of T's out-edges holding at least 1, agree on both sides.  Its classes
    # are unions of those of Fact C, which also keys on every other
    # non-sink's at-least-1 bit, so this checks Fact C too.
    g, a = instance
    ag = reference_build(g, a)
    moving = [i for i, v in enumerate(g.vertices) if g.valence(v) > 0]
    heads = [{g.index(w) for w in g.out_neighbors(v) if g.valence(w) > 0} for v in g.vertices]
    sides = {}
    rows = zip(ag.states, reference_diamond_rooted_states(ag), reference_movable_side_states(ag))
    for counts, diamond, movable in rows:
        two = [i for i in moving if counts[i] >= 2]
        fed = sorted(set().union(*(heads[i] for i in two)))
        key = (tuple(two), tuple(counts[i] >= 4 for i in two), tuple(counts[j] >= 1 for j in fed))
        assert sides.setdefault(key, (diamond, movable)) == (diamond, movable)


@PROPERTY_SETTINGS
@given(instances(), st.data())
def test_more_pebbles_keep_every_state_shifted(instance, data):
    # Fact A: every move sequence legal from a is legal from a' >= a, so
    # shifting a's states by a' - a lands inside the states of a'.
    g, a = instance
    n = len(g.vertices)
    extra = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda d: sum(d) <= 4))
    states = set(reference_build(g, Assignment(g, tuple(map(add, a.counts, extra)))).states)
    assert {tuple(map(add, s, extra)) for s in reference_build(g, a).states} <= states


@PROPERTY_SETTINGS
@given(instances())
def test_unfed_empty_non_sinks_leave_the_rows_as_they_are(instance):
    # Fact B: let U be the non-sinks that hold 0 under a and that no move
    # of a's state graph feeds.  Then 0 or 1 on each vertex of U gives the
    # same edge rows.
    g, a = instance
    ref = reference_build(g, a)
    heads = {g.index(g.edges[e][1]) for _, _, e in ref.edges}
    valences = g.valences()
    undecided = [i for i, c in enumerate(a.counts) if c == 0 and valences[i] and i not in heads]
    ag = build(g, a)
    rows = (ag.offsets.tolist(), ag.targets.tolist(), ag.labels.tolist())
    for bits in product((0, 1), repeat=len(undecided)):
        counts = list(a.counts)
        for i, bit in zip(undecided, bits):
            counts[i] = bit
        b = Assignment(g, counts)
        assert reference_build(g, b).edges == ref.edges
        other = build(g, b)
        assert (other.offsets.tolist(), other.targets.tolist(), other.labels.tolist()) == rows

"""Property tests: ``build`` and the thm-2.1 pass against the oracles, on
oriented graphs drawn by hypothesis.

Runs derandomized and without an example database, so every run checks the
same examples.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from pebblab import Assignment, OrientedGraph, build, check_thm_2_1
from oracles import naive_state_space, reference_build, reference_thm_2_1

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

from __future__ import annotations

import hashlib
import json
import operator
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from pebblab import (
    Assignment,
    AssignmentError,
    EmbeddingNotFoundError,
    GraphError,
    OrientedGraph,
    PebblabError,
    UnknownClaimError,
    build,
    canonical_pair_key,
    check_thm_2_1,
    classify_downward_4_cycle,
    construct_thm_8_1,
    downward_cycle,
    format_assignment,
    oriented_complete_bipartite,
    oriented_path,
    product_assignment,
    random_downward_tree,
    replay,
    run_claim,
    search_isomorphic_pairs,
    simple_assignment,
    tree_assignment,
    verify_cor_1_1,
    verify_cor_1_2,
    verify_cor_2_1,
    verify_cor_7_1,
    verify_lemma_7_1,
    verify_lemma_7_2,
    verify_prop_1_1,
    verify_sec_6,
    verify_thm_2_2,
    verify_thm_3_1,
    verify_thm_4_1,
    verify_thm_5_1,
    verify_thm_7_1,
    verify_thm_7_2,
)
from pebblab import StateBudgetExceededError, classify, iso, theorems
from pebblab.assignment_graph import AssignmentGraph
from pebblab.classify import built_isomorphism, iter_count_vectors, state_graph_isomorphism
from pebblab.generate import enumerate_oriented_graphs, random_assignment, random_oriented_graph
from pebblab.pebbling import near_sink_assignment
from pebblab.theorems import (
    BUDGET_EXCEEDED,
    CLAIM_IDS,
    CLAIMS,
    COUNTEREXAMPLE,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    claim_form,
    parse_path_spec,
    verify_lemma_7_1_sweep,
    verify_lemma_7_2_sweep,
    verify_thm_5_1_batch,
    verify_thm_7_1_sweep,
)
from conftest import corpus_instances, star_tree
from oracles import (
    reference_build,
    reference_built_isomorphism,
    reference_count_vectors,
    reference_iter_assignments,
    reference_pruned_hits,
    reference_scan,
    reference_scan_movers,
    reference_state_graph_isomorphism,
    reference_thm_2_1,
    reference_thm_7_2_scan,
)


# -- prop 1.1 and its corollaries ---------------------------------------------


def test_prop_1_1_holds_on_trees():
    star = star_tree(3)
    report = verify_prop_1_1(star, tree_assignment(star, 2))
    assert report.verdict == HOLDS


def test_prop_1_1_gates_on_full_traversability():
    c4 = downward_cycle(4)
    report = verify_prop_1_1(c4, Assignment(c4, {"l1": 2, "r1": 2}))
    assert report.verdict == HYPOTHESIS_NOT_MET
    assert report.stats["fully_traversable"] is False


def test_prop_1_1_heavy_source_path_not_isomorphic():
    # (4,0,m) on a 3-path: the chain of states is one longer than the path,
    # so the isomorphism gate fails even though both edges get traversed
    p3 = oriented_path(3)
    a = Assignment(p3, {"a1": 4, "a3": 1})
    ag = build(p3, a)
    assert len(ag.states) == 4
    assert ag.is_fully_traversable()
    report = verify_prop_1_1(p3, a)
    assert report.verdict == HYPOTHESIS_NOT_MET
    assert report.stats["isomorphic"] is False


def test_cor_1_1_holds_and_gates():
    p3 = oriented_path(3)
    assert verify_cor_1_1(p3, tree_assignment(p3, 3)).verdict == HOLDS
    single = OrientedGraph(["a"])
    report = verify_cor_1_1(single, Assignment(single, {"a": 5}))
    assert report.verdict == HYPOTHESIS_NOT_MET


def test_cor_1_1_heavy_leaf_discrepancy_is_flagged():
    star = star_tree(2)
    a = tree_assignment(star, 2, {"leaf1": 9})
    report = verify_cor_1_1(star, a)
    assert report.verdict == COUNTEREXAMPLE
    assert report.witness == {"pebbles": {"leaf1": 9}}
    assert report.notes  # inert-vertex discrepancy note


def test_cor_1_2_holds_on_side_family():
    c4 = downward_cycle(4)
    report = verify_cor_1_2(c4, Assignment(c4, {"l1": 2, "r1": 3}))
    assert report.verdict == HOLDS
    assert report.stats["max_traversal"] >= 2


def test_cor_1_2_gates():
    single = OrientedGraph(["a"])
    assert verify_cor_1_2(single, Assignment(single, {"a": 5})).verdict == HYPOTHESIS_NOT_MET
    p3 = oriented_path(3)
    assert verify_cor_1_2(p3, tree_assignment(p3, 2)).verdict == HYPOTHESIS_NOT_MET


# -- thm 2.1 / 2.2 ------------------------------------------------------------


def test_thm_2_1_examples():
    c4 = downward_cycle(4)
    report = check_thm_2_1(c4, Assignment(c4, {"top": 4}))
    assert report.verdict == HOLDS
    assert report.stats["contains_downward_4_cycle"] is True

    p5 = oriented_path(5)
    report = check_thm_2_1(p5, simple_assignment(p5, 2))
    assert report.verdict == HOLDS
    assert report.stats["contains_downward_4_cycle"] is False

    two_paths = OrientedGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    report = check_thm_2_1(two_paths, Assignment(two_paths, {"a": 2, "c": 2}))
    assert report.verdict == HOLDS
    assert report.stats["contains_downward_4_cycle"] is True


def test_thm_2_1_movability_evolves_along_moves():
    # (4,1,0) on a 3-path: only one vertex is movable at the start, but the
    # reachable state (2,2,0) has two, and the diamond appears there
    p3 = oriented_path(3)
    report = check_thm_2_1(p3, Assignment(p3, {"a1": 4, "a2": 1}))
    assert report.verdict == HOLDS
    assert report.stats["contains_downward_4_cycle"] is True


def test_thm_2_1_budget():
    c6 = downward_cycle(6)
    a = Assignment(c6, {"top": 6, "l1": 6, "r1": 6})
    report = check_thm_2_1(c6, a, state_budget=5)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.stats == {"state_budget": 5}
    assert assert_thm_2_1_matches_reference(c6, a, budget=5) is None


def assert_thm_2_1_matches_reference(g, a, budget=10**6, rule=None):
    """check_thm_2_1's report, after checking it against the oracle run
    with the same movable-side ``rule``; None when the budget ran out."""
    report = check_thm_2_1(g, a, budget)
    try:
        want = reference_thm_2_1(reference_build(g, a, budget), rule)
    except StateBudgetExceededError:
        assert report.verdict == BUDGET_EXCEEDED
        return None
    assert (report.verdict, report.stats, report.witness) == want
    return report


def test_thm_2_1_matches_reference_on_exhaustive_4_vertex_corpus():
    checked = 0
    for g in enumerate_oriented_graphs(4):
        non_sink = [i for i, v in enumerate(g.vertices) if g.valence(v) > 0]
        for _, vec in iter_count_vectors(len(non_sink), 4):
            counts = [0] * len(g.vertices)
            for pos, c in zip(non_sink, vec):
                counts[pos] = c
            assert_thm_2_1_matches_reference(g, Assignment(g, counts))
            checked += 1
    assert checked == 7384


def test_thm_2_1_matches_reference_on_random_draws():
    rng = random.Random(2021)
    for _ in range(400):
        g = random_oriented_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.6))
        assert_thm_2_1_matches_reference(g, random_assignment(rng, g, 6), budget=20_000)


def test_thm_2_1_budget_matches_build_exactly():
    # At a budget of exactly the state count the check completes, and one
    # state less runs out where build raises.
    rng = random.Random(27)
    for _ in range(150):
        g = random_oriented_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.6))
        a = random_assignment(rng, g, 6)
        n = len(build(g, a, 20_000).states)
        assert check_thm_2_1(g, a, n).verdict == HOLDS
        if n > 1:
            with pytest.raises(StateBudgetExceededError):
                build(g, a, n - 1)
            report = check_thm_2_1(g, a, n - 1)
            assert (report.verdict, report.stats) == (BUDGET_EXCEEDED, {"state_budget": n - 1})


def test_thm_2_1_argument_errors_match_build():
    c4 = downward_cycle(4)
    other = Assignment(downward_cycle(6), {"top": 2})
    for args in ((c4, other, 0), (c4, other, 5), (c4, Assignment(c4, {"top": 2}), 0)):
        with pytest.raises(ValueError) as built:
            build(*args)
        with pytest.raises(ValueError) as checked:
            check_thm_2_1(*args)
        assert str(checked.value) == str(built.value)


# Wrong movable sides, each a function of the threshold class: never, always,
# without the 2-movable clause, and that clause alone.
WRONG_MOVABLE_SIDES = (
    lambda movable, heavy: False,
    lambda movable, heavy: True,
    lambda movable, heavy: movable >= 2,
    lambda movable, heavy: heavy,
)


def test_thm_2_1_counterexample_witness_matches_reference(monkeypatch):
    # The criterion holds on every real state graph, so give both passes the
    # same wrong movable side to make them find counterexamples, and compare
    # the first one they report.  The check decides each threshold class
    # once, so this also checks that the class fixes the diamond side.
    rng = random.Random(7)
    p3 = oriented_path(3)
    # (4,1,0): no diamond at the root, one at (2,2,0) below it.
    instances = [(p3, Assignment(p3, {"a1": 4, "a2": 1}))]
    instances += [(g, a) for _, g, a in corpus_instances()]
    for _ in range(40):
        g = random_oriented_graph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.6))
        instances.append((g, random_assignment(rng, g, 5)))
    counterexamples, kinds = 0, set()
    for rule in WRONG_MOVABLE_SIDES:
        monkeypatch.setattr(theorems, "_movable_side", rule)
        for g, a in instances:
            report = assert_thm_2_1_matches_reference(g, a, 20_000, rule)
            if report is not None and report.verdict == COUNTEREXAMPLE:
                kinds.add(report.witness["diamond_rooted_here"])
                counterexamples += 1
    assert counterexamples >= 50 and kinds == {False, True}


def test_thm_2_2_holds_and_gates():
    c4 = downward_cycle(4)
    # (2,1,1,0) is fully traversable: both branches appear across the state graph
    report = verify_thm_2_2(c4, Assignment(c4, {"top": 2, "l1": 1, "r1": 1}))
    assert report.verdict == HOLDS
    assert report.stats["fully_traversable"] is True
    assert verify_thm_2_2(c4, Assignment(c4, {"l1": 2, "r1": 2})).verdict == HYPOTHESIS_NOT_MET
    # no downward 4-cycle subgraph: the bipartite sinks have no out-edges
    k22 = oriented_complete_bipartite(2, 2)
    gated = verify_thm_2_2(k22, Assignment(k22, {"a1": 2, "a2": 2}))
    assert gated.verdict == HYPOTHESIS_NOT_MET
    assert gated.stats["has_downward_4_cycle"] is False


# -- cor 2.1 ------------------------------------------------------------------


def test_classification_families_cap_4_and_6():
    for cap in (4, 6):
        result = classify_downward_4_cycle(cap)
        families = sorted(p.counts[:3] for p in result.pairs)
        assert families == [
            (0, 2, 2),
            (0, 2, 3),
            (0, 3, 3),
            (1, 2, 2),
            (1, 2, 3),
            (1, 3, 3),
        ]


def test_classification_families_have_no_movable_root():
    result = classify_downward_4_cycle(4)
    g = downward_cycle(4)
    for pair in result.pairs:
        assert not Assignment(g, pair.counts).is_movable("top")
        assert not pair.fully_traversable


def test_classification_rejects_small_cap():
    with pytest.raises(ValueError):
        classify_downward_4_cycle(3)


def test_cor_2_1_report():
    report, result = verify_cor_2_1(4)
    assert report.verdict == HOLDS
    assert len(result.pairs) == 6


# -- thm 3.1 ------------------------------------------------------------------


def test_thm_3_1_rejects_k_4_and_odd():
    with pytest.raises(GraphError):
        verify_thm_3_1(4, 4)
    with pytest.raises(GraphError):
        verify_thm_3_1(5, 4)


def test_thm_3_1_small():
    report = verify_thm_3_1(6, 3)
    assert report.verdict == HOLDS
    assert report.stats["isomorphic_found"] == 0
    assert report.stats["scanned"] == 4**5


def test_thm_3_1_ten_cycle_at_cap_6():
    # 40,353,607 assignments covered; the level-1 and level-2 tests in the
    # candidate generator leave 128 of them to visit.
    report = verify_thm_3_1(10, 6)
    assert report.verdict == HOLDS
    assert report.stats["isomorphic_found"] == 0
    assert report.stats["scanned"] == 7**9


def test_thm_3_1_sixteen_cycle_at_cap_6():
    # 4.7e12 assignments covered; the level-2 in-degree test leaves 8,192
    # of them to visit, as it does at cap 4.
    report = verify_thm_3_1(16, 6)
    assert report.verdict == HOLDS
    assert report.stats["isomorphic_found"] == 0
    assert report.stats["scanned"] == 7**15


# -- thm 4.1 ------------------------------------------------------------------


def test_thm_4_1_holds_on_bipartite_sources():
    k22 = oriented_complete_bipartite(2, 2)
    report = verify_thm_4_1(k22, Assignment(k22, {"a1": 2, "a2": 2}))
    assert report.verdict == HOLDS
    assert report.stats["fully_traversable"] is True


def test_thm_4_1_gates():
    p3 = oriented_path(3)
    assert verify_thm_4_1(p3, tree_assignment(p3, 2)).verdict == HYPOTHESIS_NOT_MET
    c4 = downward_cycle(4)
    assert verify_thm_4_1(c4, Assignment(c4, {"l1": 2, "r1": 2})).verdict == HYPOTHESIS_NOT_MET


# -- thm 5.1 ------------------------------------------------------------------


def test_thm_5_1_examples():
    p3 = oriented_path(3)
    report = verify_thm_5_1(p3, 2)
    assert report.verdict == HOLDS
    assert report.stats["explicit_map_verified"] is True
    star = star_tree(4)
    assert verify_thm_5_1(star, 3).verdict == HOLDS


def test_explicit_tree_map_needs_legal_moves_along_root_paths():
    tree = OrientedGraph(["r", "x", "y", "z"], [("r", "x"), ("x", "y"), ("r", "z")])
    ok = tree_assignment(tree, 2)
    assert theorems._explicit_tree_map_is_isomorphism(tree, build(tree, ok))
    # With x empty, r -> x leaves x one pebble, so x -> y is never legal on
    # the root-to-y path.
    stalled = Assignment(tree, {"r": 2, "x": 0, "y": 0, "z": 0})
    assert not theorems._explicit_tree_map_is_isomorphism(tree, build(tree, stalled))
    # Every move is legal, but the states outnumber the vertices.
    crowded = Assignment(tree, {"r": 3, "x": 3, "y": 0, "z": 0})
    assert not theorems._explicit_tree_map_is_isomorphism(tree, build(tree, crowded))


def test_thm_5_1_random_tree():
    rng = random.Random(12)
    from pebblab import random_downward_tree

    tree = random_downward_tree(rng, 12)
    leaves = {v: rng.randint(0, 9) for v in tree.sinks()}
    assert verify_thm_5_1(tree, 2, leaves).verdict == HOLDS


def test_thm_5_1_batch_rejects_a_negative_leaf_cap_before_drawing(monkeypatch):
    drawn = []
    monkeypatch.setattr(theorems, "random_downward_tree", lambda *args: drawn.append(args))
    with pytest.raises(AssignmentError, match="leaf cap must be non-negative, got -1"):
        verify_thm_5_1_batch(3, 5, 1, leaf_cap=-1)
    assert drawn == []
    monkeypatch.undo()
    assert verify_thm_5_1_batch(3, 5, 1, leaf_cap=0).verdict == HOLDS


# -- sec 6 --------------------------------------------------------------------


def test_sec_6_tiny_caps():
    report, result = verify_sec_6(2, 4)
    assert report.verdict == HOLDS
    # exactly the one-edge trees with source 2 or 3
    assert sorted(p.counts for p in result.pairs) == [(2, 0), (3, 0)]

    report, result = verify_sec_6(1, 4)
    assert report.verdict == HOLDS
    assert result.pairs == []


def test_search_any_includes_edgeless_and_paths():
    result = search_isomorphic_pairs(2, 4, ft_filter=None)
    keys = {(len(p.graph.vertices), len(p.graph.edges), p.counts) for p in result.pairs}
    assert keys == {(1, 0, (0,)), (2, 1, (2, 0)), (2, 1, (3, 0))}


def test_search_not_fully_traversable_excludes_trees():
    result = search_isomorphic_pairs(2, 4, ft_filter=False)
    # only the edgeless single vertex: its one-state graph has nothing to traverse
    keys = {(len(p.graph.vertices), len(p.graph.edges), p.counts) for p in result.pairs}
    assert keys == {(1, 0, (0,))}


# -- section 7 ----------------------------------------------------------------


def test_thm_7_1_examples():
    assert verify_thm_7_1([2, 2], [2, 2]).verdict == HOLDS
    assert verify_thm_7_1([2, 2], [3, 3]).verdict == HOLDS
    report = verify_thm_7_1([2, 2, 2], [2, 2, 2])
    assert report.verdict == HOLDS
    assert report.stats == {"vertices": 8, "edges": 12}
    assert verify_thm_7_1([4], [2]).verdict == HOLDS


def test_lemma_7_1_examples():
    report = verify_lemma_7_1(3, 4, fill=1)
    assert report.verdict == HOLDS
    assert verify_lemma_7_1(2, 2).verdict == HOLDS
    assert verify_lemma_7_1(4, 4).verdict == HYPOTHESIS_NOT_MET  # length mismatch


def test_lemma_7_1_state_chain():
    # frozen from hand simulation: (1,4,m) -> (1,2,m+1) -> (1,0,m+2)
    p3 = oriented_path(3)
    a = near_sink_assignment(p3, 4, sink_pebbles=0, fill=1)
    ag = build(p3, a)
    assert ag.states == ((1, 4, 0), (1, 2, 1), (1, 0, 2))


def test_lemma_7_2_examples():
    report = verify_lemma_7_2(4, 1, 4, fill=0)
    assert report.verdict == HOLDS
    assert report.stats["traversed_edges"] == 2
    # stalls early: only 2 of 4 edges traversed, gate needs 3
    report = verify_lemma_7_2(5, 1, 4, fill=0)
    assert report.verdict == HYPOTHESIS_NOT_MET


def test_lemma_7_2_state_chain():
    # frozen from hand simulation: (4,0,0,m) -> (2,1,0,m) -> (0,2,0,m) -> (0,0,1,m)
    p4 = oriented_path(4)
    from pebblab import heavy_step_assignment

    ag = build(p4, heavy_step_assignment(p4, 1, 4, fill=0))
    assert ag.states == ((4, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0))


def test_cor_7_1_gating_and_holds():
    p3 = oriented_path(3)
    p2 = oriented_path(2)
    good = [(p3, near_sink_assignment(p3, 4, fill=1)), (p2, simple_assignment(p2, 2))]
    assert verify_cor_7_1(good).verdict == HOLDS
    bad = [(p3, near_sink_assignment(p3, 2, fill=1))]  # state chain too short
    assert verify_cor_7_1(bad).verdict == HYPOTHESIS_NOT_MET


def test_thm_7_2_small_cases():
    for n, m in ((1, 1), (1, 2), (1, 3), (2, 1)):
        report = verify_thm_7_2(n, m)
        assert report.verdict == HOLDS, (n, m)
        assert report.witness["subgraph"]
    report = verify_thm_7_2(2, 1)
    # the construction is the downward 4-cycle; a side family certifies it
    counts = report.witness["assignment"]
    assert sorted(counts.values()) == [0, 0, 2, 2]


def test_thm_7_2_budget_paths():
    report = verify_thm_7_2(2, 2, search_cap=0)
    assert report.verdict == BUDGET_EXCEEDED
    report = verify_thm_7_2(2, 2, search_budget=5)
    assert report.verdict == BUDGET_EXCEEDED


def test_thm_7_2_search_budget_caps_the_subgraph_search_and_the_scan():
    # K(2,2)'s subgraph search needs more than 5 candidates, the assignment
    # scan more than 50 assignments.
    construction = {"construction_vertices": 8, "construction_edges": 12}
    report = verify_thm_7_2(2, 2, search_budget=5)
    assert (report.verdict, report.stats) == (BUDGET_EXCEEDED, {**construction, "search_budget": 5})
    report = verify_thm_7_2(2, 2, search_budget=50)
    assert (report.verdict, report.stats) == (
        BUDGET_EXCEEDED,
        {**construction, "search_budget": 50, "assignments_scanned": 50},
    )
    assert verify_thm_7_2(2, 2).verdict == HOLDS


def test_thm_7_2_matches_the_box_scan():
    # K(n, m) for n, m <= 3 with n m <= 6, pebbles 2-3, search caps 0-4 and
    # budgets from one that stops the subgraph search to one past every box
    # here but K(3,2)'s.  K(2,2) at cap 1 has 32 assignments and no hit, so
    # budgets 31 and 32 fall on either side of the box's end; at cap 2 its
    # first hit has index 60, so budgets 60 and 61 fall on either side of it.
    cases = [
        (n, m, pebbles, cap, budget)
        for n, m in product(range(1, 4), repeat=2) if n * m <= 6
        for pebbles in (2, 3)
        for cap in range(5)
        for budget in (1, 5, 50, 300, 10**6)
    ] + [(2, 2, 2, 1, 31), (2, 2, 2, 1, 32), (2, 2, 2, 2, 60), (2, 2, 2, 2, 61)]
    verdicts = Counter()
    for case in cases:
        got = verify_thm_7_2(*case[:4], search_budget=case[4]).to_json_obj()
        assert got == reference_thm_7_2_scan(*case).to_json_obj(), case
        verdicts[got["verdict"]] += 1
    assert verdicts == {HOLDS: 115, BUDGET_EXCEEDED: 289}
    assert verify_thm_7_2(2, 2, 2, 1, search_budget=32).notes[0].startswith("no isomorphic assignment")


def test_thm_7_2_reports_the_least_index_hit_whatever_the_walk_order(monkeypatch):
    # The walk yields its hits pattern by pattern, not in index order.  Fed
    # the real hits in reverse, so that a later index comes first, thm-7.2
    # must still report the same least-index hit.
    real = theorems._hits
    walked = []

    def reversed_walk(*args):
        walked[:] = real(*args)
        return reversed(walked)

    for n, m in ((2, 2), (2, 3), (3, 1)):
        want = verify_thm_7_2(n, m).to_json_obj()
        monkeypatch.setattr(theorems, "_hits", reversed_walk)
        got = verify_thm_7_2(n, m).to_json_obj()
        monkeypatch.setattr(theorems, "_hits", real)
        assert walked[-1][0] > min(hit[0] for hit in walked), (n, m)
        assert want["verdict"] == HOLDS and got == want, (n, m)


def test_thm_7_2_search_budget_bounds_the_candidates_generated(monkeypatch):
    # K(10,1)'s construction has 1,024 states, 1,023 of them non-sinks, and
    # the subgraph search fits in a budget of 20,000.  A heavy vertex at free
    # position k puts the index at 2 (cap+1)^k or more, so below the budget
    # only positions 0..5 at cap 4 and 0..8 at cap 2 can be heavy, and
    # `_heavy_sets` makes at most one call per subset of them.
    heavy_set = classify._heavy_sets
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls <= 2**9, "heavy sets enumerated past the search budget"
        return heavy_set(*args)

    monkeypatch.setattr(classify, "_heavy_sets", counted)
    for cap in (2, 4):
        got = verify_thm_7_2(10, 1, 2, cap, search_budget=20000).to_json_obj()
        assert got == reference_thm_7_2_scan(10, 1, 2, cap, 20000).to_json_obj(), cap
        assert got["stats"]["assignments_scanned"] == 20000
        calls = 0


def test_count_vectors_match_the_base_conversion():
    for length in range(6):
        for cap in range(4):
            assert list(iter_count_vectors(length, cap)) == list(reference_count_vectors(length, cap))
    with pytest.raises(AssignmentError):
        iter_count_vectors(2, -1)


def test_a_negative_pebble_cap_fails_before_any_graph(monkeypatch):
    import pebblab.classify as classify

    def refuse(*args):
        raise AssertionError("graphs enumerated before the pebble cap was checked")

    monkeypatch.setattr(classify, "enumerate_oriented_graphs", refuse)
    with pytest.raises(AssignmentError, match="pebble cap must be non-negative, got -1"):
        search_isomorphic_pairs(6, -1)
    with pytest.raises(AssignmentError, match="pebble cap must be non-negative, got -1"):
        classify.scan_graph_assignments([], -1)


def test_state_graph_isomorphism_matches_the_listed_moves():
    # Every class up to 4 vertices at cap 3, and every 5-vertex class at cap 2.
    for max_vertices, min_vertices, cap in ((4, 1, 3), (5, 5, 2)):
        compared = found = 0
        for g in enumerate_oriented_graphs(max_vertices, min_vertices=min_vertices):
            for _, a in reference_iter_assignments(g, cap):
                expected = reference_state_graph_isomorphism(g, a)
                got = state_graph_isomorphism(g, a)
                if expected is None:
                    assert got is None, (g, a.counts)
                else:
                    assert got is not None and got.pairs == expected.pairs, (g, a.counts)
                    found += 1
                compared += 1
        assert found > 0 and compared > found, max_vertices


def _scan_cases():
    classes = enumerate_oriented_graphs(4)
    yield from ((classes, cap) for cap in range(7))
    yield enumerate_oriented_graphs(5, min_vertices=5), 3
    yield from (([downward_cycle(6)], cap) for cap in range(6))
    yield from (([downward_cycle(8)], cap) for cap in range(4))


def test_pruned_scan_matches_the_box_scan(monkeypatch):
    # Every class up to 4 vertices at caps 0-6, every 5-vertex class at cap
    # 3, and the downward 6- and 8-cycles at caps up to 5 and 3.  The scan
    # builds only box vectors that pass the root-degree, level-1 out-degree
    # and level-2 in-degree tests, none twice, and answers for each vector
    # that passes them: it builds it, or builds a base below it that holds 0
    # where it holds 1 and whose moves feed none of those vertices, or it
    # dominates a built vector with more states than the graph has vertices.
    # So a dropped, an extra or a repeated build fails even when it is not a
    # hit.  It builds pattern by pattern and sorts its hits, so the hits pin
    # the order.
    real = classify.build
    for graphs, cap in _scan_cases():
        position = {id(g): pos for pos, g in enumerate(graphs)}
        built = []
        fed: dict[tuple[int, tuple[int, ...]], set[int] | None] = {}

        def recording(g, a, **kwargs):
            vector = (position[id(g)], a.counts)
            built.append(vector)
            fed[vector] = None  # stays None when the build raises
            ag = real(g, a, **kwargs)
            fed[vector] = {g.index(g.edges[e][1]) for e in ag.labels}
            return ag

        monkeypatch.setattr(classify, "build", recording)
        got = classify.scan_graph_assignments(graphs, cap)
        monkeypatch.setattr(classify, "build", real)
        assert got == reference_scan(graphs, cap), cap
        movers = reference_scan_movers(graphs, cap)
        assert set(built) <= set(movers) and len(set(built)) == len(built), cap

        def answered(pos, counts):
            for (at, base), heads in fed.items():
                if at != pos:
                    continue
                if heads is None and all(map(operator.ge, counts, base)):
                    return True
                if heads is not None and all(
                    c == b or (b, c) == (0, 1) and i not in heads for i, (c, b) in enumerate(zip(counts, base))
                ):
                    return True
            return False

        assert all(answered(*vector) for vector in movers), cap


def test_grouped_hits_match_the_per_vector_walk():
    # Every graded class up to 6 vertices at caps 0-6, the downward cycles
    # with k <= 14 at caps 0-6, and limits 1, 5, 17, 100 and 1,000 at cap 4
    # on every graded class up to 5 vertices.  A completion's hit carries
    # its base's state graph and witness, which must give the full
    # traversability and witness that its own build gives.
    def hits(walk, g, cap, limit):
        return sorted((idx, counts, ag.is_fully_traversable(), iso.pairs) for idx, counts, ag, iso in walk(g, cap, limit))

    graded = [g for g in enumerate_oriented_graphs(6) if g.graded_root() is not None]
    cases = [(g, cap, float("inf")) for g in graded for cap in range(7)]
    cases += [(downward_cycle(k), cap, float("inf")) for k in range(4, 15, 2) for cap in range(7)]
    cases += [(g, 4, limit) for g in graded if len(g.vertices) <= 5 for limit in (1, 5, 17, 100, 1000)]
    found = Counter()
    for case in cases:
        want = hits(reference_pruned_hits, *case)
        assert hits(classify._hits, *case) == want, case
        found[case[2] == float("inf")] += len(want)
    assert found[True] > 0 and found[False] > 0


def test_long_cycle_scans_build_once_per_group(monkeypatch):
    # On the downward 10-, 16- and 20-cycles at cap 6, 128, 8,192 and
    # 131,072 vectors pass the level tests.  One build answers for each
    # group of them that its moves leave unfed, and the one build that
    # passes the state budget rules out every later vector above it, so
    # an extra build means a lost group or a lost prune.
    real = classify.build
    builds = Counter()

    def counting(g, a, **kwargs):
        builds[len(g.vertices)] += 1
        try:
            return real(g, a, **kwargs)
        except classify.StateBudgetExceededError:
            builds[len(g.vertices), "raised"] += 1
            raise

    monkeypatch.setattr(classify, "build", counting)
    for k in (10, 16, 20):
        assert verify_thm_3_1(k, 6).stats["isomorphic_found"] == 0
    assert builds == {10: 31, 16: 97, 20: 161, (10, "raised"): 1, (16, "raised"): 1, (20, "raised"): 1}


def test_five_vertex_search_at_cap_3_is_frozen():
    # The digest is of `pebblab search --max-vertices 5 --pebble-cap 3
    # --format json`, as printed before the graded-root exit.
    result = search_isomorphic_pairs(5, 3)
    assert (len(result.pairs), result.scanned) == (53, 238_429)
    text = json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "dad191bed81fd48e3a22a5b2c1843aa85773176cc14dd81808202d95eadd26a3"


def test_six_vertex_search_at_cap_6_is_frozen():
    # The digest is of `pebblab search --max-vertices 6 --pebble-cap 6
    # --format json`.  Only the pruned scan reaches it: the box scan would
    # visit all 1,130,152,624 assignments one by one.  At cap 2, where both
    # run, their outputs are the same bytes.
    result = search_isomorphic_pairs(6, 6)
    assert (len(result.pairs), result.scanned) == (294, 1_130_152_624)
    text = json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "da897d2ccf682891638f17e487968c86aa76e32ba4354df1abf6875488f79fc1"


# -- thm 8.1 ------------------------------------------------------------------


def test_thm_8_1_identity_cases():
    p3 = oriented_path(3)
    host, host_a, report = construct_thm_8_1(p3, simple_assignment(p3, 2))
    assert report.verdict == HOLDS
    assert len(host.vertices) == 3
    p2 = oriented_path(2)
    _, _, report = construct_thm_8_1(p2, simple_assignment(p2, 2))
    assert report.verdict == HOLDS


def test_thm_8_1_four_cycle():
    c4 = downward_cycle(4)
    host, host_a, report = construct_thm_8_1(c4, Assignment(c4, {"top": 4}))
    assert report.verdict == HOLDS
    assert len(host.vertices) == 7
    assert report.stats["original_states"] == report.stats["host_states"] == 7
    # the embedded copy carries the original pebbles, everything else zero
    assert sorted(host_a.counts) == [0, 0, 0, 0, 0, 0, 4]


def test_thm_8_1_embedding_not_found():
    triangle = OrientedGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(EmbeddingNotFoundError):
        construct_thm_8_1(triangle, Assignment(triangle, {"a": 4}))


# -- claim runner and replay ---------------------------------------------------


def test_run_claim_unknown():
    with pytest.raises(UnknownClaimError) as err:
        run_claim("thm-9.9", {})
    assert "thm-5.1" in str(err.value)


def test_run_claim_instance_roundtrip():
    from pebblab import format_assignment

    c4 = downward_cycle(4)
    text = format_assignment(Assignment(c4, {"top": 4}))
    report, _ = run_claim("thm-2.1", {"input": text})
    assert report.verdict == HOLDS


def test_run_claim_tree_decomposition_gates():
    g = oriented_path(3)
    text = "v a 2\nv b 2\nv c 0\ne a b\ne b c\n"
    report, _ = run_claim("thm-5.1", {"input": text})
    assert report.verdict == HYPOTHESIS_NOT_MET
    good = "v a 2\nv b 1\nv c 5\ne a b\ne b c\n"
    report, _ = run_claim("thm-5.1", {"input": good})
    assert report.verdict == HOLDS


def test_run_claim_thm_8_1_embedding_gate():
    text = "v a 4\nv b 0\nv c 0\ne a b\ne b c\ne c a\n"
    report, _ = run_claim("thm-8.1", {"input": text})
    assert report.verdict == HYPOTHESIS_NOT_MET


def test_replay_reproduces_verdicts():
    # one report per form of every registered claim, each replayed from its
    # own params to the same JSON
    star = star_tree(2)
    c4 = downward_cycle(4)
    top4 = Assignment(c4, {"top": 4})
    specs = ["nearsink:n=3,k=4", "simple:n=2,src=2"]
    reports = [
        verify_prop_1_1(star, tree_assignment(star, 2)),
        verify_cor_1_1(star, tree_assignment(star, 2, {"leaf1": 9})),
        verify_cor_1_2(c4, Assignment(c4, {"l1": 2, "r1": 2})),
        check_thm_2_1(c4, top4),
        verify_thm_2_2(c4, top4),
        verify_cor_2_1(4)[0],
        verify_thm_3_1(6, 3),
        verify_thm_4_1(c4, top4),
        verify_thm_5_1(star, 3, {"leaf1": 5}),
        verify_thm_5_1_batch(5, 6, 3),
        verify_sec_6(3, 3)[0],
        verify_thm_7_1([2, 3], [2, 3], [1, 0]),
        verify_thm_7_1_sweep(2, 3),
        verify_lemma_7_1(3, 4, fill={"a1": 0}),
        verify_lemma_7_1_sweep(5),
        verify_lemma_7_2(4, 1, 4, fill=0),
        verify_lemma_7_2_sweep(4),
        verify_cor_7_1([parse_path_spec(spec) for spec in specs], specs),
        verify_thm_7_2(2, 1),
        construct_thm_8_1(c4, top4)[2],
    ]
    forms = {form for claim_forms in CLAIMS.values() for form in claim_forms}
    assert {claim_form(r.claim, r.params) for r in reports} == forms
    for report in reports:
        assert replay(report).to_json_obj() == report.to_json_obj(), report.claim


def test_claim_ids_follow_the_registry():
    assert CLAIM_IDS == tuple(CLAIMS)
    assert len(CLAIM_IDS) == 16
    thm_7_2 = claim_form("thm-7.2", {})
    assert thm_7_2.required == ("n", "m")
    assert set(thm_7_2.keys) == {"n", "m", "pebbles", "search_cap", "state_budget", "search_budget"}
    assert thm_7_2.reads("pebbles", int) and not thm_7_2.reads("pebbles", list)
    assert claim_form("thm-7.1", {}).reads("pebbles", list)
    assert claim_form("thm-7.1", {"sweep": True}).required == ("sweep",)
    assert claim_form("thm-5.1", {"random_trees": 3}).required == ("random_trees",)
    assert claim_form("thm-5.1", {}).required == ("input",)


@pytest.mark.parametrize(
    "claim, params, named",
    [
        ("thm-3.1", {}, "needs k"),
        ("thm-7.1", {"lengths": [2]}, "needs pebbles"),
        ("lem-7.2", {"n": 4}, "needs position, heavy"),
        ("prop-1.1", {}, "needs input"),
        ("thm-3.1", {"k": 6, "pebble_cap": 5}, "does not read 'pebble_cap'"),
        ("sec-6", {"cap": 2}, "does not read 'cap'"),
        ("thm-7.1", {"lengths": [2], "pebbles": 2}, "does not read 'pebbles' as int"),
        ("thm-7.1", {"sweep": True, "lengths": [2]}, "does not read 'lengths'"),
    ],
)
def test_run_claim_rejects_missing_and_unread_params(claim, params, named):
    with pytest.raises(UnknownClaimError) as err:
        run_claim(claim, params)
    assert named in str(err.value)


def test_run_claim_passes_budgets_only_to_claims_that_read_them():
    report, _ = run_claim("thm-3.1", {"k": 6, "cap": 2}, state_budget=1, search_budget=1)
    assert report.verdict == HOLDS
    c4 = downward_cycle(4)
    text = format_assignment(Assignment(c4, {"top": 4}))
    report, _ = run_claim("thm-2.1", {"input": text}, state_budget=3)
    assert report.verdict == BUDGET_EXCEEDED
    report, _ = run_claim("thm-2.1", {"input": text, "state_budget": 3})
    assert report.verdict == BUDGET_EXCEEDED


def test_thm_7_1_rejects_lists_of_different_lengths():
    with pytest.raises(GraphError):
        verify_thm_7_1([2, 3], [2])
    with pytest.raises(GraphError):
        verify_thm_7_1([2], [2], [0, 0])
    assert verify_thm_7_1([2, 3], [2, 2]).params["sinks"] == [0, 0]


def test_budget_reports_from_lemma_7_2_and_thm_8_1():
    report = verify_lemma_7_2(4, 1, 4, fill=0, state_budget=1)
    assert report.verdict == BUDGET_EXCEEDED
    assert report.stats == {"state_budget": 1}
    assert replay(report, state_budget=1).to_json_obj() == report.to_json_obj()
    c4 = downward_cycle(4)
    report, extra = run_claim(
        "thm-8.1", {"input": format_assignment(Assignment(c4, {"top": 4}))}, state_budget=1
    )
    assert (report.verdict, report.stats, extra) == (BUDGET_EXCEEDED, {"state_budget": 1}, None)


def test_canonical_pair_key_relabel_invariance():
    rng = random.Random(9)
    star = star_tree(3)
    counts = tree_assignment(star, 2, {"leaf2": 0}).counts
    key = canonical_pair_key(star, counts)
    for _ in range(20):
        names = list(star.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        relabeled = star.relabel(mapping)
        moved = tuple(
            dict(zip([mapping[v] for v in star.vertices], counts))[v]
            for v in relabeled.vertices
        )
        assert canonical_pair_key(relabeled, moved) == key
    other = canonical_pair_key(star, tree_assignment(star, 3).counts)
    assert other != key


def test_cor_1_2_holds_on_every_classified_family():
    # not fully traversable + isomorphic forces a repeated edge
    g = downward_cycle(4)
    for pair in classify_downward_4_cycle(4).pairs:
        report = verify_cor_1_2(g, Assignment(g, pair.counts))
        assert report.verdict == HOLDS, pair.counts


def test_no_fully_traversable_pair_contains_a_downward_4_cycle():
    from pebblab import find_downward_4_cycle

    result = search_isomorphic_pairs(4, 4, ft_filter=True)
    assert result.pairs
    for pair in result.pairs:
        assert find_downward_4_cycle(pair.graph) is None


def test_importing_pebblab_loads_no_process_pool():
    # A fresh interpreter, so that no other test's imports count.
    code = (
        "import pebblab, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(classify.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "[]\n"


# -- one test of a graph against its built state graph ------------------------

C4_TOP_4 = Assignment(downward_cycle(4), {"top": 4})  # 7 states on 4 vertices

# Reports frozen from the earlier direct isomorphism call on instances whose
# state graph has more states than the graph has vertices.  The lem-7.2
# instance has 5 states on 4 vertices and fails the traversal gate: the
# instances up to 7 vertices that pass it all have exactly n states.
LARGER_STATE_GRAPHS = [
    (verify_prop_1_1, (C4_TOP_4.graph, C4_TOP_4), HYPOTHESIS_NOT_MET,
     {"states": 7, "fully_traversable": True, "isomorphic": False}),
    (verify_cor_1_1, (C4_TOP_4.graph, C4_TOP_4), HYPOTHESIS_NOT_MET,
     {"states": 7, "fully_traversable": True, "isomorphic": False}),
    (verify_cor_1_2, (C4_TOP_4.graph, C4_TOP_4), HYPOTHESIS_NOT_MET,
     {"states": 7, "fully_traversable": True, "isomorphic": False}),
    (verify_thm_4_1, (C4_TOP_4.graph, C4_TOP_4), HOLDS,
     {"states": 7, "fully_traversable": True, "underlying_cycle": True}),
    (verify_lemma_7_2, (4, 1, 5, 3, {"a3": 1}), HYPOTHESIS_NOT_MET,
     {"n": 4, "position": 1, "heavy": 5, "traversed_edges": 3}),
]


def _refuse_search(g, offsets, targets):
    raise AssertionError("isomorphism search run on a state graph of another size")


@pytest.mark.parametrize("check, args, verdict, stats", LARGER_STATE_GRAPHS)
def test_a_larger_state_graph_is_never_named(monkeypatch, check, args, verdict, stats):
    def refuse(self):
        raise AssertionError("as_oriented_graph called on a state graph of another size")

    monkeypatch.setattr(AssignmentGraph, "as_oriented_graph", refuse)
    monkeypatch.setattr(classify, "isomorphism_onto_rows", _refuse_search)
    report = check(*args)
    assert (report.verdict, report.stats, report.witness) == (verdict, stats, None)


def test_a_state_graph_with_other_transition_count_is_never_named(monkeypatch):
    def refuse(self):
        raise AssertionError("as_oriented_graph called on a state graph of another size")

    p2 = oriented_path(2)
    chain = build(p2, Assignment(p2, [4, 0]))
    pair = OrientedGraph(["u", "v", "w", "x"], [("u", "v"), ("w", "x")])
    diamond = build(pair, Assignment(pair, [2, 0, 2, 0]))
    triangle = OrientedGraph(["s", "a", "b"], [("s", "a"), ("a", "b"), ("s", "b")])
    monkeypatch.setattr(AssignmentGraph, "as_oriented_graph", refuse)
    monkeypatch.setattr(classify, "isomorphism_onto_rows", _refuse_search)
    assert (len(chain.states), len(chain.edges)) == (3, 2)
    assert (len(diamond.states), len(diamond.edges)) == (4, 4)
    assert built_isomorphism(triangle, chain) is None
    assert built_isomorphism(oriented_path(4), diamond) is None


def test_built_isomorphism_matches_the_direct_call():
    compared = found = 0
    for g in enumerate_oriented_graphs(4):
        for _, a in reference_iter_assignments(g, 2):
            ag = build(g, a)
            expected = reference_built_isomorphism(g, ag)
            # The second call may answer from the memo; both must match.
            for got in (built_isomorphism(g, ag), built_isomorphism(g, ag)):
                if expected is None:
                    assert got is None, (g, a.counts)
                else:
                    assert got is not None and got.pairs == expected.pairs, (g, a.counts)
            found += expected is not None
            compared += 1
    assert found > 0 and compared > found


@pytest.fixture
def searches(monkeypatch):
    """Count the isomorphism searches that `built_isomorphism` runs."""
    calls = []
    real = classify.isomorphism_onto_rows

    def counted(g, offsets, targets):
        calls.append(g)
        return real(g, offsets, targets)

    monkeypatch.setattr(classify, "isomorphism_onto_rows", counted)
    return calls


def _rows(ag) -> tuple[bytes, bytes]:
    return bytes(ag.offsets), bytes(ag.targets)


def _forked_stem():
    """r -> m -> {x, y}, y -> z: under r=2, m=1, y=1 its state graph is
    itself; under r=4 it has as many states and transitions, in other rows,
    and is not isomorphic to it."""
    return OrientedGraph(["r", "m", "x", "y", "z"], [("r", "m"), ("m", "x"), ("m", "y"), ("y", "z")])


def test_a_tree_checked_twice_is_searched_once(searches):
    rng = random.Random(21)
    tree = random_downward_tree(rng, 14)
    leaves = {v: rng.randint(0, 9) for v in tree.sinks()}

    def reports(second):
        return (
            verify_thm_5_1(tree, 3, leaves).to_json_obj(),
            verify_prop_1_1(second, tree_assignment(second, 3, leaves)).to_json_obj(),
        )

    same_tree = reports(tree)
    assert len(searches) == 1
    assert [r["verdict"] for r in same_tree] == [HOLDS, HOLDS]
    # A copy is another graph object, so prop-1.1 searches again.
    assert reports(OrientedGraph(tree.vertices, tree.edges)) == same_tree
    assert len(searches) == 2


def test_a_relabelled_graph_is_searched_again(searches):
    tree = random_downward_tree(random.Random(22), 9)
    renamed = tree.relabel({v: f"x{v}" for v in tree.vertices})
    ag = build(tree, tree_assignment(tree, 2))
    ag_renamed = build(renamed, tree_assignment(renamed, 2))
    assert _rows(ag) == _rows(ag_renamed)
    witness = built_isomorphism(tree, ag)
    renamed_witness = built_isomorphism(renamed, ag_renamed)
    assert len(searches) == 2
    assert [u for u, _ in renamed_witness.pairs] == list(renamed.vertices)
    assert renamed_witness.pairs == reference_built_isomorphism(renamed, ag_renamed).pairs
    assert witness.pairs == reference_built_isomorphism(tree, ag).pairs


def test_the_memo_holds_one_entry(searches):
    g = _forked_stem()
    ag_a, ag_b = build(g, Assignment(g, {"r": 2, "m": 1, "y": 1})), build(g, Assignment(g, {"r": 4}))
    assert _rows(ag_a) != _rows(ag_b)
    got = [built_isomorphism(g, ag) for ag in (ag_a, ag_b, ag_a)]
    assert len(searches) == 3
    want = [reference_built_isomorphism(g, ag) for ag in (ag_a, ag_b, ag_a)]
    assert [w and w.pairs for w in got] == [w and w.pairs for w in want]
    assert got[0] is not None and got[1] is None


def test_a_missing_isomorphism_is_remembered_too(searches):
    # Two sources, so never isomorphic to a state graph; both assignments
    # give 4 states and 3 transitions in the same rows.
    g = OrientedGraph(["v0", "v1", "v2", "v3"], [("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
    built = [build(g, Assignment(g, {"v1": top, "v2": 1})) for top in (2, 3)]
    assert [(len(ag.states), len(ag.edges)) for ag in built] == [(4, 3), (4, 3)]
    assert _rows(built[0]) == _rows(built[1])
    assert [built_isomorphism(g, ag) for ag in built] == [None, None]
    assert len(searches) == 1


def _same_witness(g, ag) -> bool:
    got, want = built_isomorphism(g, ag), reference_built_isomorphism(g, ag)
    return (got and got.pairs) == (want and want.pairs)


def test_the_row_search_matches_the_named_search_on_random_trees():
    # Leaves hold any count, so sibling leaves are twins whose images only
    # the search order decides.
    rng = random.Random(2301)
    for _ in range(500):
        tree = random_downward_tree(rng, rng.randint(2, 24))
        a = tree_assignment(tree, rng.choice((2, 3)), {v: rng.randint(0, 2) for v in tree.sinks()})
        assert _same_witness(tree, build(tree, a)), (tree.edges, a.counts)


def test_the_row_search_matches_the_named_search_where_counts_match():
    g = _forked_stem()
    two_sources = OrientedGraph(["v0", "v1", "v2", "v3"], [("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
    cases = [(g, Assignment(g, {"r": 4})), (g, Assignment(g, {"r": 2, "m": 1, "y": 1}))]
    cases += [(two_sources, Assignment(two_sources, {"v1": top, "v2": 1})) for top in (2, 3)]
    for graph, a in cases:
        ag = build(graph, a)
        assert (len(ag.states), len(ag.edges)) == (len(graph.vertices), len(graph.edges))
        assert _same_witness(graph, ag), a.counts
    assert [built_isomorphism(graph, build(graph, a)) is None for graph, a in cases] == [True, False, True, True]


def test_the_row_search_matches_the_named_search_on_path_products():
    options = [(n, sp) for n in (2, 3, 4) for sp in (2, 3)]
    for r in (1, 2, 3):
        for factors in combinations_with_replacement(options, r):
            paths = [oriented_path(n) for n, _ in factors]
            g, a = product_assignment([(p, simple_assignment(p, sp)) for p, (_, sp) in zip(paths, factors)])
            ag = build(g, a)
            assert built_isomorphism(g, ag) is not None, factors
            assert _same_witness(g, ag), factors


@pytest.mark.parametrize("corrupt", ["swap", "repeat"])
def test_a_corrupted_row_witness_is_refused(monkeypatch, corrupt):
    real = iso._isomorphisms

    def corrupted(*args, **kwargs):
        image = real(*args, **kwargs)[0]
        if corrupt == "swap":
            image[0], image[-1] = image[-1], image[0]
        else:
            image[-1] = image[0]
        return [image]

    monkeypatch.setattr(iso, "_isomorphisms", corrupted)
    tree = star_tree(3)
    ag = build(tree, tree_assignment(tree, 2))
    with pytest.raises(PebblabError, match="internal error: witness failed verification"):
        built_isomorphism(tree, ag)


def test_concurrent_callers_share_the_isomorphism_memo_safely():
    # Threads alternating over instances of two graphs keep replacing the
    # one-entry memo; every answer must still equal the direct search.
    rng = random.Random(23)
    jobs = []
    for n in (8, 10):
        tree = random_downward_tree(rng, n)
        for top in (2, 3):
            ag = build(tree, tree_assignment(tree, top))
            jobs.append((tree, ag, reference_built_isomorphism(tree, ag).pairs))
    g = _forked_stem()
    jobs.append((g, build(g, Assignment(g, {"r": 4})), None))
    failures: list[str] = []

    def worker(offset: int) -> None:
        for k in range(60):
            graph, ag, want = jobs[(offset + k) % len(jobs)]
            got = built_isomorphism(graph, ag)
            if (got and got.pairs) != want:
                failures.append(f"worker {offset} job {k}")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every expected value below is either trivial, hand-derived, or
cross-checked against the brute-force oracles in ``oracles.py``.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

from pebblab import (
    Assignment,
    OrientedGraph,
    build,
    check_thm_2_1,
    classify_downward_4_cycle,
    digraph_isomorphic,
    downward_cycle,
    random_assignment,
    random_oriented_graph,
    verify_lemma_7_1_sweep,
    verify_lemma_7_2_sweep,
    verify_sec_6,
    verify_thm_3_1,
    verify_thm_5_1_batch,
    verify_thm_7_1_sweep,
    verify_thm_7_2,
)
from pebblab.classify import iter_count_vectors
from pebblab.cli import main
from pebblab.generate import enumerate_oriented_graphs
from pebblab.theorems import BUDGET_EXCEEDED, HOLDS
from conftest import corpus_instances, corpus_small_graphs
from oracles import naive_state_space

RANDOM_SEED = 20260810


@contextmanager
def criterion(num: int, desc: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} ({desc}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {num:2d} ({desc}): PASS in {elapsed:.1f}s (limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.1f}s, limit {limit_s}s"


def test_criterion_01_figure_reproduction():
    with criterion(1, "figure reproduction", 1.0):
        g = downward_cycle(4)
        seven = build(g, Assignment(g, {"top": 4}))
        assert len(seven.states) == 7 and len(seven.edges) == 8
        diamond_plus_tails = OrientedGraph(
            ["n1", "n2", "n3", "n4", "n5", "n6", "n7"],
            [("n1", "n2"), ("n1", "n3"), ("n3", "n4"), ("n2", "n4"),
             ("n2", "n5"), ("n3", "n6"), ("n5", "n7"), ("n6", "n7")],
        )
        assert digraph_isomorphic(seven.as_oriented_graph(), diamond_plus_tails) is not None

        six = build(g, Assignment(g, {"l1": 4, "r1": 2}))
        assert len(six.states) == 6 and len(six.edges) == 7
        second_figure = OrientedGraph(
            ["n1", "n2", "n3", "n4", "n5", "n6"],
            [("n1", "n2"), ("n2", "n4"), ("n1", "n3"), ("n3", "n4"),
             ("n5", "n1"), ("n5", "n6"), ("n6", "n3")],
        )
        assert digraph_isomorphic(six.as_oriented_graph(), second_figure) is not None


def test_criterion_02_four_cycle_classification():
    with criterion(2, "downward 4-cycle families", 10.0):
        result = classify_downward_4_cycle(6)
        families = {p.counts[:3] for p in result.pairs}
        assert families == {
            (0, 2, 2), (1, 2, 2), (0, 2, 3), (1, 2, 3), (0, 3, 3), (1, 3, 3),
        }
        assert len(result.pairs) == 6  # reduced modulo the side swap


def test_criterion_03_diamond_criterion_corpus():
    with criterion(3, "diamond criterion, exhaustive + random", 300.0):
        checked = 0
        for g in enumerate_oriented_graphs(4):
            non_sink = [i for i, v in enumerate(g.vertices) if g.valence(v) > 0]
            for _, vec in iter_count_vectors(len(non_sink), 4):
                counts = [0] * len(g.vertices)
                for pos, c in zip(non_sink, vec):
                    counts[pos] = c
                report = check_thm_2_1(g, Assignment(g, counts))
                assert report.verdict == HOLDS, report.instance
                checked += 1
        assert checked == 7384

        rng = random.Random(RANDOM_SEED)
        built = skipped = 0
        for _ in range(10_000):
            n = rng.randint(1, 8)
            g = random_oriented_graph(rng, n, rng.uniform(0.1, 0.6))
            a = random_assignment(rng, g, 6)
            report = check_thm_2_1(g, a)
            if report.verdict == BUDGET_EXCEEDED:
                skipped += 1
                continue
            assert report.verdict == HOLDS, report.instance
            built += 1
        assert built + skipped == 10_000
        assert skipped <= 10  # budget exclusions must stay rare


def test_criterion_03_largest_random_draw(decided_classes):
    # Draw 3894 of criterion 3's random part, the largest state graph it
    # checks, drawn in the same loop.  The check decides 34,910 threshold
    # classes: keyed on every non-sink's at-least-one bit it would decide
    # 56,115, and with no at-least-one bits 5,441 (sound only if thm-2.1 is).
    rng = random.Random(RANDOM_SEED)
    for _ in range(3895):
        g = random_oriented_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.6))
        a = random_assignment(rng, g, 6)
    report = check_thm_2_1(g, a)
    assert report.verdict == HOLDS
    assert report.stats == {"states": 931_844, "edges": 8_106_619, "contains_downward_4_cycle": True}
    assert len(decided_classes) == 34_910


def test_criterion_04_larger_cycles():
    with criterion(4, "larger downward cycles", 120.0):
        r6 = verify_thm_3_1(6, 5)
        assert r6.verdict == HOLDS and r6.stats["isomorphic_found"] == 0
        assert r6.stats["scanned"] == 6**5
        r8 = verify_thm_3_1(8, 4)
        assert r8.verdict == HOLDS and r8.stats["isomorphic_found"] == 0
        assert r8.stats["scanned"] == 5**7


def test_criterion_05_random_trees():
    with criterion(5, "random downward trees", 60.0):
        report = verify_thm_5_1_batch(200, 12, seed=7, leaf_cap=9)
        assert report.verdict == HOLDS
        assert report.stats["instances"] == 200


def test_criterion_06_fully_traversable_classification():
    with criterion(6, "fully traversable classification", 600.0):
        report, result = verify_sec_6(4, 4)
        assert report.verdict == HOLDS
        assert report.stats["found_pairs"] == report.stats["expected_pairs"] == 14


def test_criterion_07_product_suite():
    with criterion(7, "products of paths", 120.0):
        sweep = verify_thm_7_1_sweep(3, 4)
        assert sweep.verdict == HOLDS
        assert sweep.stats["instances"] == 83 and sweep.stats["holds"] == 83

        near_sink = verify_lemma_7_1_sweep(8)
        assert near_sink.verdict == HOLDS
        assert near_sink.stats["counterexamples"] == 0
        assert near_sink.stats["hypothesis_not_met"] == 0

        heavy = verify_lemma_7_2_sweep(6)
        assert heavy.verdict == HOLDS
        assert heavy.stats["counterexamples"] == 0
        assert heavy.stats["holds"] >= 1


def test_criterion_08_bipartite_constructions():
    with criterion(8, "bipartite constructions", 300.0):
        for n, m in ((1, 1), (1, 2), (1, 3), (2, 1)):
            report = verify_thm_7_2(n, m)
            assert report.verdict == HOLDS, (n, m)
        outcome = verify_thm_7_2(2, 2)
        assert outcome.verdict in (HOLDS, BUDGET_EXCEEDED)
        print(f"  thm-7.2 (2,2) recorded verdict: {outcome.verdict}")


def test_criterion_09_property_suites():
    with criterion(9, "structural property suites", 300.0):
        instances = corpus_instances()

        # grading, unique source, bipartite shadow
        for name, g, a in instances:
            ag = build(g, a)
            indeg = [0] * len(ag.states)
            for f, t, _ in ag.edges:
                assert sum(ag.states[f]) - 1 == sum(ag.states[t]), name
                assert sum(ag.states[f]) % 2 != sum(ag.states[t]) % 2, name
                indeg[t] += 1
            assert [i for i, d in enumerate(indeg) if d == 0] == [0], name

        # sink invariance under 20 random perturbations per instance
        rng = random.Random(RANDOM_SEED + 1)
        for name, g, a in instances:
            sinks = g.sinks()
            if not sinks:
                continue
            for _ in range(20):
                v = rng.choice(sinks)
                c = rng.randint(0, 9)
                base = build(g, a.with_count(v, 0))
                shifted = build(g, a.with_count(v, c))
                iv = g.index(v)
                shifted_ids = {s: i for i, s in enumerate(shifted.states)}
                remap = {}
                for sid, counts in enumerate(base.states):
                    lifted = counts[:iv] + (counts[iv] + c,) + counts[iv + 1 :]
                    remap[sid] = shifted_ids[lifted]
                assert len(base.states) == len(shifted.states), name
                assert {(remap[f], remap[t], e) for f, t, e in base.edges} == set(
                    shifted.edges
                ), name

        # move commutation on 10,000 random legal pairs
        rng = random.Random(RANDOM_SEED + 2)
        checked = 0
        while checked < 10_000:
            _, g, a = rng.choice(instances)
            state = a
            for _ in range(rng.randint(0, 6)):
                moves = state.legal_moves()
                if not moves:
                    break
                state = state.apply_move(rng.choice(moves))
            moves = state.legal_moves()
            if len(moves) < 2:
                continue
            m1, m2 = rng.sample(moves, 2)
            if m1[0] == m2[0] and state[m1[0]] < 4:
                continue
            assert state.apply_move(m1).apply_move(m2) == state.apply_move(m2).apply_move(m1)
            checked += 1

        # oracle equivalence: builder vs naive recursive enumeration
        def compositions(total, cells):
            if cells == 1:
                for c in range(total + 1):
                    yield (c,)
                return
            for c in range(total + 1):
                for rest in compositions(total - c, cells - 1):
                    yield (c,) + rest

        for name, g in corpus_small_graphs():
            if len(g.vertices) > 6:
                continue
            for counts in compositions(8, len(g.vertices)):
                ag = build(g, Assignment(g, counts))
                states, transitions = naive_state_space(g, counts)
                assert set(ag.states) == states, (name, counts)
                got = {(ag.states[f], ag.states[t], g.edges[e]) for f, t, e in ag.edges}
                assert got == transitions, (name, counts)


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "byte-identical outputs", 600.0):
        instance = tmp_path / "cycle.txt"
        instance.write_text(
            "v top 4\nv l1 0\nv r1 0\nv bottom 0\n"
            "e top l1\ne l1 bottom\ne top r1\ne r1 bottom\n"
        )
        command_sets = [
            ["build", str(instance)],
            ["verify", "cor-2.1", "--cap", "6", "--format", "json"],
            ["verify", "thm-3.1", "--k", "6", "--cap", "3", "--format", "json"],
            ["verify", "thm-5.1", "--random-trees", "50", "--max-vertices", "10",
             "--seed", "7", "--format", "json"],
            ["search", "--max-vertices", "3", "--pebble-cap", "4", "--format", "json"],
        ]
        captured: list[list[str]] = [[], []]
        for round_idx in range(2):
            for i, argv in enumerate(command_sets):
                extra = []
                dot = tmp_path / f"r{round_idx}c{i}.dot"
                js = tmp_path / f"r{round_idx}c{i}.json"
                if argv[0] == "build":
                    extra = ["--dot", str(dot), "--json", str(js)]
                assert main(argv + extra) == 0
                stdout = capsys.readouterr().out
                record = stdout
                if argv[0] == "build":
                    record += dot.read_text() + js.read_text()
                captured[round_idx].append(record)
        for first, second in zip(captured[0], captured[1]):
            assert first == second
        for payload in captured[0]:
            assert payload  # every command actually produced output

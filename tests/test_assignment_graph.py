from __future__ import annotations

import random
import re
import sys
import threading

import pytest

from pebblab import (
    Assignment,
    OrientedGraph,
    StateBudgetExceededError,
    build,
    downward_cycle,
    find_downward_4_cycle,
    oriented_path,
    parse_graph_text,
    random_downward_tree,
    simple_assignment,
    tree_assignment,
)
from pebblab import assignment_graph, theorems
from pebblab.generate import random_assignment, random_oriented_graph
from conftest import corpus_instances, corpus_small_graphs
from oracles import brute_downward_4_cycles, naive_state_space, reference_build, reference_thm_2_1


def test_seven_state_figure():
    g = downward_cycle(4)
    ag = build(g, Assignment(g, {"top": 4}))
    assert len(ag.states) == 7
    assert len(ag.edges) == 8
    # oracle-derived traversal counts for this instance
    assert ag.traversal_counts() == {
        ("top", "l1"): 3,
        ("l1", "bottom"): 1,
        ("top", "r1"): 3,
        ("r1", "bottom"): 1,
    }
    assert ag.is_fully_traversable()


def test_six_state_figure():
    g = downward_cycle(4)
    ag = build(g, Assignment(g, {"l1": 4, "r1": 2}))
    assert len(ag.states) == 6
    assert len(ag.edges) == 7


def test_no_moves_single_state():
    g = OrientedGraph(["a", "b"], [("a", "b")])
    ag = build(g, Assignment(g, {"a": 1, "b": 1}))
    assert len(ag.states) == 1
    assert len(ag.edges) == 0
    assert ag.root == 0


def test_root_valence_three():
    g = downward_cycle(4)
    ag = build(g, Assignment(g, {"top": 2, "l1": 2}))
    root_out = sum(1 for f, _, _ in ag.edges if f == 0)
    assert root_out == 3


def test_traversal_counts_path_simple():
    p3 = oriented_path(3)
    ag = build(p3, simple_assignment(p3, 2))
    assert ag.traversal_counts() == {("a1", "a2"): 1, ("a2", "a3"): 1}
    assert len(ag.states) == 3


def test_traversal_counts_no_moves():
    g = OrientedGraph(["a", "b"], [("a", "b")])
    ag = build(g, Assignment(g, {"a": 1}))
    assert ag.traversal_counts() == {("a", "b"): 0}


def test_fully_traversable_cases():
    p3 = oriented_path(3)
    assert build(p3, tree_assignment(p3, 2)).is_fully_traversable()
    c4 = downward_cycle(4)
    assert not build(c4, Assignment(c4, {"l1": 2, "r1": 2})).is_fully_traversable()
    edgeless = OrientedGraph(["a"])
    assert not build(edgeless, Assignment(edgeless, {"a": 5})).is_fully_traversable()


def test_build_matches_naive_oracle_on_corpus():
    for name, g, a in corpus_instances():
        ag = build(g, a)
        states, transitions = naive_state_space(g, a.counts)
        assert set(ag.states) == states, name
        got = {(ag.states[f], ag.states[t], g.edges[e]) for f, t, e in ag.edges}
        assert got == transitions, name


def test_oracle_equivalence_exhaustive_small_totals(small_graphs):
    # every assignment with at most 8 total pebbles, graphs up to 6 vertices
    def compositions(total, cells):
        if cells == 1:
            for c in range(total + 1):
                yield (c,)
            return
        for c in range(total + 1):
            for rest in compositions(total - c, cells - 1):
                yield (c,) + rest

    for name, g in small_graphs:
        n = len(g.vertices)
        if n > 6:
            continue
        for counts in compositions(8, n):
            ag = build(g, Assignment(g, counts))
            states, transitions = naive_state_space(g, counts)
            assert set(ag.states) == states, (name, counts)
            got = {(ag.states[f], ag.states[t], g.edges[e]) for f, t, e in ag.edges}
            assert got == transitions, (name, counts)


def test_grading_unique_source_bipartite():
    for name, g, a in corpus_instances():
        ag = build(g, a)
        indeg = [0] * len(ag.states)
        for f, t, _ in ag.edges:
            assert sum(ag.states[f]) - 1 == sum(ag.states[t]), name
            indeg[t] += 1
        roots = [i for i, d in enumerate(indeg) if d == 0]
        assert roots == [0], name
        # graded by total pebbles, so the shadow is bipartite by parity
        for f, t, _ in ag.edges:
            assert sum(ag.states[f]) % 2 != sum(ag.states[t]) % 2, name


def test_state_budget_is_an_error_not_truncation():
    g = downward_cycle(4)
    with pytest.raises(StateBudgetExceededError):
        build(g, Assignment(g, {"top": 4}), state_budget=3)
    # exactly at the cap succeeds
    ag = build(g, Assignment(g, {"top": 4}), state_budget=7)
    assert len(ag.states) == 7


def test_sink_invariance():
    rng = random.Random(11)
    for name, g, a in corpus_instances():
        sinks = g.sinks()
        if not sinks:
            continue
        for _ in range(20):
            v = rng.choice(sinks)
            c = rng.randint(0, 9)
            base = build(g, a.with_count(v, 0))
            shifted = build(g, a.with_count(v, c))
            assert len(base.states) == len(shifted.states), name
            iv = g.index(v)
            lifted_index = {}
            shifted_ids = {counts: i for i, counts in enumerate(shifted.states)}
            for sid, counts in enumerate(base.states):
                lifted = counts[:iv] + (counts[iv] + c,) + counts[iv + 1 :]
                assert lifted in shifted_ids, name
                lifted_index[sid] = shifted_ids[lifted]
            remapped = {(lifted_index[f], lifted_index[t], e) for f, t, e in base.edges}
            assert remapped == set(shifted.edges), name


def test_move_commutation_random_pairs():
    rng = random.Random(23)
    instances = corpus_instances()
    checked = 0
    while checked < 10_000:
        _, g, a = rng.choice(instances)
        # walk to a random reachable state
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
        if m1[0] != m2[0]:
            one = state.apply_move(m1).apply_move(m2)
            two = state.apply_move(m2).apply_move(m1)
            assert one == two
            checked += 1
        elif state[m1[0]] >= 4:
            one = state.apply_move(m1).apply_move(m2)
            two = state.apply_move(m2).apply_move(m1)
            assert one == two
            checked += 1


def test_find_downward_4_cycle_matches_brute_force():
    g = downward_cycle(4)
    seven = build(g, Assignment(g, {"top": 4})).as_oriented_graph()
    chain = build(oriented_path(5), simple_assignment(oriented_path(5), 2)).as_oriented_graph()
    for graph in (g, seven, chain, oriented_path(3)):
        witness = find_downward_4_cycle(graph)
        brute = brute_downward_4_cycles(graph)
        assert (witness is None) == (not brute)
        if witness is not None:
            assert witness in brute


def test_downward_4_cycle_examples():
    g = downward_cycle(4)
    assert find_downward_4_cycle(g) == ("top", "l1", "r1", "bottom")
    seven = build(g, Assignment(g, {"top": 4})).as_oriented_graph()
    assert find_downward_4_cycle(seven) is not None
    p5 = oriented_path(5)
    chain = build(p5, simple_assignment(p5, 2)).as_oriented_graph()
    assert find_downward_4_cycle(chain) is None


def test_as_oriented_graph():
    g = downward_cycle(4)
    one = build(g, Assignment(g, {})).as_oriented_graph()
    assert one.vertices == ("0",)
    seven = build(g, Assignment(g, {"top": 4})).as_oriented_graph()
    assert len(seven.vertices) == 7
    assert len(seven.edges) == 8
    six = build(g, Assignment(g, {"l1": 4, "r1": 2})).as_oriented_graph()
    assert len(six.vertices) == 6
    assert len(six.edges) == 7


def test_dot_output_stable():
    p3 = oriented_path(3)
    ag = build(p3, simple_assignment(p3, 2))
    dot = ag.to_dot()
    assert dot == ag.to_dot()
    assert 's0 [label="2,1,0"];' in dot
    assert 's0 -> s1 [label="a1->a2"];' in dot
    assert dot.startswith("digraph assignment_graph {")


def test_dot_escapes_quotes_and_backslashes_in_edge_labels():
    # The text format allows any non-whitespace name.
    g, a = parse_graph_text('v a"b 2\nv c\\\ne a"b c\\\n')
    dot = build(g, a).to_dot()
    quoted = re.findall(r'label="((?:[^"\\]|\\.)*)"', dot)
    assert len(quoted) == dot.count("label=") == 3
    assert re.sub(r"\\(.)", r"\1", quoted[-1]) == 'a"b->c\\'


def test_assignment_graph_is_simple(instances):
    for name, g, a in instances:
        ag = build(g, a)
        seen = set()
        for f, t, _ in ag.edges:
            assert f != t, name
            assert (f, t) not in seen, name  # no parallel edges
            assert (t, f) not in seen, name  # no opposite pairs
            seen.add((f, t))


def assert_same_as_reference(g, a, budget=10**6):
    """``build`` and the tuple-based reference agree on states,
    edges (ids and order), DOT, JSON, traversal counts and the unlabelled
    graph, or both exceed the budget."""
    try:
        want = reference_build(g, a, budget)
    except StateBudgetExceededError:
        with pytest.raises(StateBudgetExceededError):
            build(g, a, budget)
        return None
    got = build(g, a, budget)
    assert got.states == want.states
    assert got.edges == want.edges
    assert tuple(got.states) == want.states and tuple(got.edges) == want.edges
    assert [got.state_label(i) for i in range(len(want.states))] == [
        want.state_label(i) for i in range(len(want.states))
    ]
    assert got.to_dot() == want.to_dot()
    assert got.to_json_obj() == want.to_json_obj()
    labels = [e for _, _, e in want.edges]
    counts = {edge: labels.count(i) for i, edge in enumerate(g.edges)}
    assert got.traversal_counts() == counts
    assert got.is_fully_traversable() == (bool(counts) and min(counts.values()) >= 1)
    shape = got.as_oriented_graph()
    assert shape.vertices == tuple(str(i) for i in range(len(want.states)))
    assert shape.edges == tuple((str(f), str(t)) for f, t, _ in want.edges)
    return got


def test_build_matches_reference_build():
    for _, g, a in corpus_instances():
        assert_same_as_reference(g, a)
    for _, g in corpus_small_graphs():
        rng = random.Random(len(g.vertices))
        for _ in range(30):
            assert_same_as_reference(g, random_assignment(rng, g, 5))
    rng = random.Random(11)
    for _ in range(300):
        g = random_oriented_graph(rng, rng.randint(1, 7), rng.uniform(0.1, 0.7))
        assert_same_as_reference(g, random_assignment(rng, g, 5), budget=5_000)


@pytest.mark.parametrize(
    "total",
    [127, 128, 255, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**32 + 7, 2**63, 2**63 + 1, 2**70, 2**130],
)
def test_field_width_boundaries(total):
    # The sink holds the bulk, so the state graph stays small while its
    # count sits next to a field's guard bit; with the sink first, a carry
    # out of its field would land in the fields of the vertices that move.
    # thm-2.1's class key reads the guard bits at the top of each field.
    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "sink")]
    for names in (["a", "b", "c", "sink"], ["sink", "c", "b", "a"]):
        g = OrientedGraph(names, edges)
        for bulk, rest in ((total - 10, {"a": 5, "b": 2, "c": 3}), (total - 4, {"a": 4}), (total - 3, {"c": 3})):
            a = Assignment(g, {"sink": bulk, **rest})
            ag = assert_same_as_reference(g, a)
            assert ag.states[0] == a.counts and sum(ag.states[-1]) < total
            assert ag.assignment(len(ag.states) - 1).counts == ag.states[-1]
            report = theorems.check_thm_2_1(g, a)
            assert (report.verdict, report.stats, report.witness) == reference_thm_2_1(reference_build(g, a))


@pytest.mark.parametrize("total", [126, 127, 128, 129, 2**15, 2**15 + 1])
def test_field_width_boundaries_on_a_moving_vertex(total):
    g = OrientedGraph(["a", "b"], [("a", "b")])
    ag = assert_same_as_reference(g, Assignment(g, (total - 1, 1)))
    assert ag.states[0] == (total - 1, 1) and len(ag.states) == (total - 1) // 2 + 1


def test_zero_vertex_graph():
    g = OrientedGraph([])
    ag = assert_same_as_reference(g, Assignment(g, ()))
    assert ag.states == ((),) and ag.edges == ()
    assert ag.traversal_counts() == {} and not ag.is_fully_traversable()
    assert ag.as_oriented_graph().vertices == ("0",)


def test_zero_pebble_start():
    g = downward_cycle(6)
    ag = assert_same_as_reference(g, Assignment(g, {}))
    assert ag.states == ((0,) * 6,) and ag.edges == ()


def test_state_budget_edge_on_multilevel_instance():
    g = downward_cycle(4)
    a = Assignment(g, {"top": 6, "l1": 3})
    states = len(reference_build(g, a).states)
    assert states > 10 and len({sum(s) for s in build(g, a).states}) > 3
    assert len(build(g, a, state_budget=states).states) == states
    with pytest.raises(StateBudgetExceededError):
        build(g, a, state_budget=states - 1)
    with pytest.raises(StateBudgetExceededError):
        reference_build(g, a, state_budget=states - 1)


def test_levels_hold_one_pebble_total_each():
    # Breadth-first order is level order: in id order, the states' pebble
    # totals never rise, and each drop is by exactly one.
    g = downward_cycle(4)
    ag = build(g, Assignment(g, {"top": 5, "l1": 2, "r1": 3}))
    totals = [sum(s) for s in ag.states]
    assert len(set(totals)) > 3
    assert all(later in (total, total - 1) for total, later in zip(totals, totals[1:]))


def test_views_behave_like_tuples():
    g = downward_cycle(4)
    ag = build(g, Assignment(g, {"top": 4}))
    want = reference_build(g, Assignment(g, {"top": 4}))
    assert ag.states == want.states and want.states == ag.states
    assert ag.states != list(want.states)
    assert hash(ag.edges) == hash(want.edges)
    assert ag.states[1:3] == want.states[1:3] and ag.edges[-1] == want.edges[-1]
    assert list(ag.edges) == list(want.edges) and want.states[2] in ag.states
    assert repr(ag.states) == repr(want.states)


def test_state_graph_is_immutable():
    g = downward_cycle(4)
    ag = build(g, Assignment(g, {"top": 4}))
    states, edges = tuple(ag.states), tuple(ag.edges)
    for name in ("graph", "packed", "offsets", "targets", "labels", "states", "edges"):
        with pytest.raises(AttributeError):
            setattr(ag, name, None)
    for row in (ag.offsets, ag.targets, ag.labels):
        with pytest.raises(TypeError):
            row[0] = 1
    assert isinstance(ag.packed, tuple)
    assert ag.states == states and ag.edges == edges
    assert list(ag.targets) == [t for _, t, _ in edges] and list(ag.labels) == [e for _, _, e in edges]


def test_successor_reads_the_move_rows():
    g = downward_cycle(4)
    ag = build(g, Assignment(g, {"top": 4}))
    for sid in range(len(ag.states)):
        moves = {e: t for f, t, e in ag.edges if f == sid}
        for e in range(len(g.edges)):
            assert ag.successor(sid, e) == moves.get(e)


def _build_concurrently(jobs) -> list[str]:
    """Six threads build the jobs in turn with a tiny switch interval;
    the jobs whose build differs from its (states, edges)."""
    failures: list[str] = []

    def worker(offset: int) -> None:
        for k in range(60):
            g, a, states, edges = jobs[(offset + k) % len(jobs)]
            ag = build(g, a)
            if ag.states != states or ag.edges != edges:
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
    return failures


def test_concurrent_builds_share_the_layout_memo_safely():
    # Threads building two graphs in turn keep replacing the one-entry
    # layout memo and filling the same move tables; every build must still
    # equal the reference.
    rng = random.Random(5)
    jobs = []
    for _ in range(2):
        g = random_oriented_graph(rng, 6, 0.5)
        for _ in range(4):
            a = random_assignment(rng, g, 5)
            want = reference_build(g, a)
            jobs.append((g, a, want.states, want.edges))
    assert _build_concurrently(jobs) == []


def test_concurrent_builds_share_kept_state_graphs_safely():
    # Tree builds with at most |V| states are kept in the entry and handed
    # back on a repeat; threads interleaving two trees must still get each
    # tree's own state graph.
    rng = random.Random(6)
    jobs = []
    for _ in range(2):
        tree = random_downward_tree(rng, 9)
        for root in (2, 3):
            a = tree_assignment(tree, root, {v: rng.randint(0, 3) for v in tree.sinks()})
            want = reference_build(tree, a)
            assert len(want.states) == len(tree.vertices)
            jobs.append((tree, a, want.states, want.edges))
    assert _build_concurrently(jobs) == []


def _tree_instance(seed: int = 7):
    rng = random.Random(seed)
    tree = random_downward_tree(rng, 10)
    a = tree_assignment(tree, 3, {v: rng.randint(0, 5) for v in tree.sinks()})
    return tree, a


def _copy(g: OrientedGraph, a: Assignment) -> tuple[OrientedGraph, Assignment]:
    twin = OrientedGraph(g.vertices, g.edges)
    return twin, Assignment(twin, a.counts)


def test_a_repeat_build_returns_the_kept_state_graph():
    tree, a = _tree_instance()
    ag = build(tree, a)
    assert len(ag.states) == len(tree.vertices)
    assert build(tree, Assignment(tree, a.counts)) is ag
    twin, b = _copy(tree, a)
    fresh = build(twin, b)
    assert fresh is not ag
    assert ag.packed == fresh.packed
    for row in ("offsets", "targets", "labels"):
        assert getattr(ag, row).tobytes() == getattr(fresh, row).tobytes()
    assert ag.states == reference_build(tree, a).states


def test_thm_5_1_then_prop_1_1_builds_one_tree_once(monkeypatch):
    made = []
    real = assignment_graph.AssignmentGraph

    def counting(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(assignment_graph, "AssignmentGraph", counting)
    tree, a = _tree_instance()
    leaves = {v: a.counts[tree.index(v)] for v in tree.sinks()}
    assert theorems.verify_thm_5_1(tree, 3, leaves).verdict == theorems.HOLDS
    assert theorems.verify_prop_1_1(tree, tree_assignment(tree, 3, leaves)).verdict == theorems.HOLDS
    assert len(made) == 1
    twin, b = _copy(tree, a)
    assert theorems.verify_prop_1_1(twin, b).verdict == theorems.HOLDS
    assert len(made) == 2


def test_a_kept_state_graph_keeps_the_state_budget_edge():
    tree, a = _tree_instance()
    ag = build(tree, a)
    states = len(ag.states)
    with pytest.raises(StateBudgetExceededError) as caught:
        build(tree, a, state_budget=states - 1)
    assert caught.value.budget == states - 1
    assert build(tree, a, state_budget=states) is ag


def test_a_build_past_the_vertex_count_keeps_no_state_graph():
    tree, a = _tree_instance()
    ag = build(tree, a)
    assert assignment_graph._last_layout[2] is ag
    heavy = Assignment(tree, {v: 4 for v in tree.vertices})
    assert len(build(tree, heavy).states) > len(tree.vertices)
    assert assignment_graph._last_layout[2] is None
    again = build(tree, a)
    assert again is not ag and again.packed == ag.packed
    with pytest.raises(StateBudgetExceededError):
        build(tree, heavy, state_budget=len(tree.vertices))
    assert assignment_graph._last_layout[2] is None


def test_argument_errors_come_before_the_kept_state_graph():
    tree, a = _tree_instance()
    build(tree, a)
    with pytest.raises(ValueError, match="at least 1"):
        build(tree, a, state_budget=0)
    other = OrientedGraph(tree.vertices, tree.edges[1:])
    with pytest.raises(ValueError, match="different graph"):
        build(tree, Assignment(other, a.counts))


def test_checkers_never_build_the_tuple_forms():
    tree, a = _tree_instance()
    leaves = {v: a.counts[tree.index(v)] for v in tree.sinks()}
    assert theorems.verify_thm_5_1(tree, 3, leaves).verdict == theorems.HOLDS
    assert theorems.verify_prop_1_1(tree, a).verdict == theorems.HOLDS
    kept = build(tree, a)
    assert assignment_graph._last_layout[2] is kept
    assert kept._states is None and kept._edges is None

"""Executable verification of the classification results.

Each checker computes a verdict for one claim id: ``holds`` when the claimed
statement checks out on the instance, ``counterexample`` when it fails,
``hypothesis-not-met`` when the instance does not satisfy the claim's
premises, and ``budget-exceeded`` when a search or build cap stopped the
computation first.  Reports embed the instance in the shared text format so
every verdict can be replayed.
"""

from __future__ import annotations

import inspect
import random
from collections import Counter
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, islice, product

from .assignment_graph import DEFAULT_STATE_BUDGET, AssignmentGraph, _field_width, _Layout, build
from .assignment_graph import check_build_args, find_downward_4_cycle
from .classify import (
    ClassificationResult,
    _box_size,
    _check_cap,
    _hits,
    built_isomorphism,
    canonical_pair_key,
    classify_downward_4_cycle,
    scan_graph_assignments,
    search_isomorphic_pairs,
    state_graph_isomorphism,
)
from .errors import AssignmentError, BudgetExceededError, EmbeddingNotFoundError, GraphError, UnknownClaimError
from .errors import StateBudgetExceededError
from .generate import enumerate_downward_trees, random_downward_tree
from .graphs import OrientedGraph, downward_cycle, oriented_complete_bipartite, oriented_path
# digraph_isomorphic is not called here, but perfbench's tracer patches it here.
from .iso import (
    DEFAULT_EXPANSION_BUDGET,
    digraph_isomorphic,
    find_induced_undirected_embedding,
    find_oriented_subgraph,
    undirected_isomorphic,
)
from .pebbling import (
    Assignment,
    heavy_step_assignment,
    near_sink_assignment,
    product_assignment,
    simple_assignment,
    tree_assignment,
)
from .textio import format_assignment, parse_graph_text

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"
BUDGET_EXCEEDED = "budget-exceeded"

DOWNWARD_4_CYCLE_FAMILIES = frozenset(
    {(0, 2, 2), (1, 2, 2), (0, 2, 3), (1, 2, 3), (0, 3, 3), (1, 3, 3)}
)


@dataclass
class VerificationReport:
    claim: str
    instance: str
    verdict: str
    witness: dict | None = None
    stats: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    instance_text: str | None = None
    params: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj: dict = {
            "claim": self.claim,
            "instance": self.instance,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.stats:
            obj["stats"] = self.stats
        if self.notes:
            obj["notes"] = list(self.notes)
        if self.instance_text is not None:
            obj["instance_text"] = self.instance_text
        if self.params:
            obj["params"] = self.params
        return obj

    def table(self) -> str:
        lines = [
            f"claim:    {self.claim}",
            f"instance: {self.instance}",
            f"verdict:  {self.verdict}",
        ]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"


def _describe(a: Assignment) -> str:
    g = a.graph
    counts = ",".join(f"{v}={c}" for v, c in zip(g.vertices, a.counts))
    return f"{len(g.vertices)}v/{len(g.edges)}e graph with pebbles {counts}"


def _budget_report(
    claim: str, a: Assignment, exc: BudgetExceededError, params: dict | None = None
) -> VerificationReport:
    """A budget-exceeded report whose stats name the budget that ran out."""
    return _instance_report(claim, a, BUDGET_EXCEEDED, params, stats={exc.resource: exc.budget})


def _instance_report(
    claim: str, a: Assignment, verdict: str, params: dict | None = None, **kwargs
) -> VerificationReport:
    """A report on one instance; its replay parameters default to the
    instance text."""
    text = format_assignment(a)
    return VerificationReport(
        claim,
        _describe(a),
        verdict,
        instance_text=text,
        params=params or {"input": text},
        **kwargs,
    )


# -- section 1: traversal counting ------------------------------------------


def verify_prop_1_1(
    g: OrientedGraph, a: Assignment, state_budget: int = DEFAULT_STATE_BUDGET
) -> VerificationReport:
    """Fully traversable and isomorphic to the state graph implies every
    edge is traversed exactly once."""
    try:
        ag = build(g, a, state_budget)
    except BudgetExceededError as exc:
        return _budget_report("prop-1.1", a, exc)
    ft = ag.is_fully_traversable()
    iso = built_isomorphism(g, ag)
    stats = {"states": len(ag.packed), "fully_traversable": ft, "isomorphic": iso is not None}
    if not ft or iso is None:
        return _instance_report("prop-1.1", a, HYPOTHESIS_NOT_MET, stats=stats)
    counts = ag.traversal_counts()
    offenders = {f"{u}->{w}": c for (u, w), c in counts.items() if c != 1}
    if offenders:
        return _instance_report(
            "prop-1.1", a, COUNTEREXAMPLE, stats=stats, witness={"traversal_counts": offenders}
        )
    return _instance_report("prop-1.1", a, HOLDS, stats=stats)


def verify_cor_1_1(
    g: OrientedGraph, a: Assignment, state_budget: int = DEFAULT_STATE_BUDGET
) -> VerificationReport:
    """On more than one vertex, fully traversable and isomorphic implies no
    vertex holds more than three pebbles."""
    if len(g.vertices) <= 1:
        return _instance_report(
            "cor-1.1", a, HYPOTHESIS_NOT_MET, stats={"reason": "graph has one vertex"}
        )
    try:
        ag = build(g, a, state_budget)
    except BudgetExceededError as exc:
        return _budget_report("cor-1.1", a, exc)
    ft = ag.is_fully_traversable()
    iso = built_isomorphism(g, ag)
    stats = {"states": len(ag.packed), "fully_traversable": ft, "isomorphic": iso is not None}
    if not ft or iso is None:
        return _instance_report("cor-1.1", a, HYPOTHESIS_NOT_MET, stats=stats)
    offenders = {v: a[v] for v in g.vertices if a[v] > 3}
    if not offenders:
        return _instance_report("cor-1.1", a, HOLDS, stats=stats)
    notes = ()
    if all(g.valence(v) == 0 for v in offenders):
        notes = (
            "every offending vertex has valence zero, so the surplus pebbles "
            "can never move; the literal statement fails only on such inert vertices",
        )
    return _instance_report(
        "cor-1.1", a, COUNTEREXAMPLE, stats=stats, witness={"pebbles": offenders}, notes=notes
    )


def verify_cor_1_2(
    g: OrientedGraph, a: Assignment, state_budget: int = DEFAULT_STATE_BUDGET
) -> VerificationReport:
    """Not fully traversable yet isomorphic implies some edge is traversed
    more than once.  Gated on the graph having an edge: an edgeless graph
    has nothing to traverse and satisfies the premises vacuously."""
    try:
        ag = build(g, a, state_budget)
    except BudgetExceededError as exc:
        return _budget_report("cor-1.2", a, exc)
    ft = ag.is_fully_traversable()
    iso = built_isomorphism(g, ag)
    stats = {"states": len(ag.packed), "fully_traversable": ft, "isomorphic": iso is not None}
    if not g.edges or ft or iso is None:
        return _instance_report("cor-1.2", a, HYPOTHESIS_NOT_MET, stats=stats)
    counts = ag.traversal_counts()
    top = max(counts.values())
    stats["max_traversal"] = top
    if top >= 2:
        repeated = {f"{u}->{w}": c for (u, w), c in counts.items() if c >= 2}
        return _instance_report("cor-1.2", a, HOLDS, stats=stats, witness={"repeated": repeated})
    return _instance_report(
        "cor-1.2",
        a,
        COUNTEREXAMPLE,
        stats=stats,
        witness={"traversal_counts": {f"{u}->{w}": c for (u, w), c in counts.items()}},
    )


# -- section 2: the downward 4-cycle criterion -------------------------------


def _movable_side(movable: int, heavy: bool) -> bool:
    """The criterion's movable side at a state, from what its threshold
    class says: ``movable`` vertices hold two pebbles and have an out-edge,
    and ``heavy`` says whether one with two out-edges holds four."""
    return movable >= 2 or heavy


def check_thm_2_1(
    g: OrientedGraph, a: Assignment, state_budget: int = DEFAULT_STATE_BUDGET
) -> VerificationReport:
    """The diamond criterion, checked state by state: a state is the top of
    a downward 4-cycle in the state graph exactly when it has two movable
    vertices or a 2-movable vertex with at least four pebbles.  The
    assignment evolves as moves are played, so both sides are evaluated at
    every reachable state, not only at the start.

    Fact C', from the definitions alone.  Let T be the set of vertices with
    an out-edge holding at least two pebbles.  A state's threshold class is
    T, the vertices of T holding at least four, and the non-sink heads of
    T's out-edges holding at least one.  After a move u -> w, with u in T,
    a vertex x holds two pebbles exactly when x = u held four, x = w held
    one, or another x held two, and a sink w never moves.  So the class
    fixes the legal moves at the state and at each child, and two move
    pairs reach one grandchild exactly when their sums are equal, whatever
    the state: both sides are functions of the class.  Neither side reads
    the at-least-one bits of any other vertex.

    One pass, level by level in ``build``'s order and under its budget,
    counts states and edges and keeps only two levels and each class's
    first state.  It walks a level in stretches and tests the budget at the
    end of each: a stretch is as many states as the room left holds at the
    graph's edge count of moves each, and at least one, so the next level
    never overshoots the budget by more than one state's moves, and the
    pass runs out exactly where ``build`` does.  When the pass ends, each
    class is decided at its first state, in discovery order: the diamond
    side from the exact packed children and grandchildren (the first two
    moves played in either order, else the distinct grandchildren counted
    against the move pairs that reach them), the movable side by
    ``_movable_side``.
    """
    check_build_args(g, a, state_budget)
    counts = a.counts
    layout = _Layout(g, _field_width(sum(counts)))
    movable, add2, moves = layout.movable, layout.add2, layout.moves
    top = layout.width - 1
    # Per edge: the guard bit of its head, or 0 when the head is a sink.
    head_bits = [(1 << (g.index(w) * layout.width + top)) & movable for _, w in g.edges]
    # T's guard bits -> (legal moves, add, mask, T >> 1, move count).  A
    # vertex of T always holds at least one pebble, so one addition reads
    # every bit of the class: ``(s + add) & mask`` keeps the >= 4 guard bits
    # of T and the >= 1 guard bits of the other non-sink heads, and T >> 1
    # sits one bit below T's guard bits.  ``classes`` maps each class key
    # to its first state.
    table: dict[int, tuple[tuple[int, ...], int, int, int, int]] = {}
    classes: dict[int, int] = {}
    level: Collection[int] = (layout.pack(counts),)
    states, edges = 1, 0
    # No state has more legal moves than the graph has edges.
    most_moves = max(1, len(g.edges))
    while level:
        room = state_budget - states
        seen: dict[int, None] = {}
        walk = iter(level)
        left = len(level)
        while left > 0:
            # k states add at most k * most_moves new ones, so a stretch
            # stays within the room, or takes one state when less is left.
            k = max(1, (room - len(seen)) // most_moves)
            left -= k
            for s in islice(walk, k):
                two = (s + add2) & movable
                entry = table.get(two)
                if entry is None:
                    deltas, labels = moves(two)
                    heads = 0
                    for e in labels:
                        heads |= head_bits[e]
                    others = heads & ~two
                    add = two - 4 * (two >> top) + others - (others >> top)
                    entry = table[two] = (deltas, add, two | heads, two >> 1, len(deltas))
                deltas, add, mask, half, n = entry
                key = (s + add) & mask | half
                if key not in classes:
                    classes[key] = s
                for d in deltas:
                    seen[s - d] = None
                edges += n
            if len(seen) > room:
                return _budget_report("thm-2.1", a, StateBudgetExceededError(state_budget))
        states += len(seen)
        level = seen

    two_bits = movable >> 1
    heavy_bits = layout.threshold_mask(4, 2)[1]
    any_diamond, witness = False, None
    for key, s in classes.items():
        # Every child was a state of the pass, so its moves are in the table.
        two = (key & two_bits) << 1
        first = table[two][0]
        # Most diamonds close on the first two moves played in either order.
        # A move stays legal after another that leaves a different vertex,
        # and after one from its own vertex exactly when that vertex held
        # four, so the second move is legal after the first exactly when the
        # first is legal after the second.  Otherwise count grandchildren:
        # distinct moves from one state reach distinct states, so the
        # distinct ones fall behind the pairs counted exactly when two first
        # moves meet.
        diamond = len(first) > 1 and first[1] in table[(s - first[0] + add2) & movable][0]
        if not diamond:
            reached: set[int] = set()
            pairs = 0
            for d in first:
                child = s - d
                below = table[(child + add2) & movable][0]
                reached.update([child - e for e in below])
                pairs += len(below)
                if len(reached) < pairs:
                    diamond = True
                    break
        rhs = _movable_side(two.bit_count(), bool(key & two & heavy_bits))
        if diamond != rhs and witness is None:
            label = ",".join(map(str, layout.unpack(s)))
            witness = {"state": label, "diamond_rooted_here": diamond, "movable_condition_here": rhs}
        any_diamond = any_diamond or diamond
        if witness is not None and any_diamond:
            break
    stats = {"states": states, "edges": edges, "contains_downward_4_cycle": any_diamond}
    verdict = HOLDS if witness is None else COUNTEREXAMPLE
    return _instance_report("thm-2.1", a, verdict, stats=stats, witness=witness)


def _never_isomorphic(
    claim: str, g: OrientedGraph, a: Assignment, state_budget: int, premise: str, met: bool
) -> VerificationReport:
    """Fully traversable on a graph with a structural premise (``premise`` in
    the stats, ``met`` if it holds) means never isomorphic to the state graph."""
    try:
        ag = build(g, a, state_budget)
    except BudgetExceededError as exc:
        return _budget_report(claim, a, exc)
    ft = ag.is_fully_traversable()
    stats = {"states": len(ag.packed), premise: met, "fully_traversable": ft}
    if not met or not ft:
        return _instance_report(claim, a, HYPOTHESIS_NOT_MET, stats=stats)
    iso = built_isomorphism(g, ag)
    if iso is None:
        return _instance_report(claim, a, HOLDS, stats=stats)
    return _instance_report(claim, a, COUNTEREXAMPLE, stats=stats, witness=iso.to_json_obj())


def verify_thm_2_2(
    g: OrientedGraph, a: Assignment, state_budget: int = DEFAULT_STATE_BUDGET
) -> VerificationReport:
    """A graph containing a downward 4-cycle with a fully traversable
    assignment is never isomorphic to its state graph."""
    met = find_downward_4_cycle(g) is not None
    return _never_isomorphic("thm-2.2", g, a, state_budget, "has_downward_4_cycle", met)


def verify_cor_2_1(pebble_cap: int = 6) -> tuple[VerificationReport, ClassificationResult]:
    """Rediscover the six assignment families on the downward 4-cycle whose
    state graph is isomorphic to the cycle."""
    result = classify_downward_4_cycle(pebble_cap)
    families = sorted(pair.counts[:3] for pair in result.pairs)
    expected = sorted(DOWNWARD_4_CYCLE_FAMILIES)
    verdict = HOLDS if families == expected else COUNTEREXAMPLE
    report = VerificationReport(
        "cor-2.1",
        f"downward 4-cycle, non-sink counts up to {pebble_cap}, sink symbolic",
        verdict,
        witness={"families": [list(f) for f in families]},
        stats={"scanned": result.scanned, "families": len(families)},
        params={"cap": pebble_cap},
    )
    return report, result


# -- sections 3 and 4: larger cycles -----------------------------------------


def verify_thm_3_1(k: int, pebble_cap: int) -> VerificationReport:
    """No assignment on a downward k-cycle, k > 4, is isomorphic to its
    state graph (non-sink counts scanned up to the cap, sink normalized)."""
    if k <= 4 or k % 2:
        raise GraphError(f"k must be even and greater than 4, got {k}")
    g = downward_cycle(k)
    hits, scanned = scan_graph_assignments([g], pebble_cap)
    stats = {"k": k, "pebble_cap": pebble_cap, "scanned": scanned, "isomorphic_found": len(hits)}
    report = VerificationReport(
        "thm-3.1",
        f"downward {k}-cycle, counts up to {pebble_cap}",
        HOLDS,
        stats=stats,
        params={"k": k, "cap": pebble_cap},
    )
    if hits:
        a = Assignment(g, hits[0][2])
        report.verdict = COUNTEREXAMPLE
        report.witness = {"assignment": a.as_dict()}
        report.instance_text = format_assignment(a)
    return report


def verify_thm_4_1(
    g: OrientedGraph, a: Assignment, state_budget: int = DEFAULT_STATE_BUDGET
) -> VerificationReport:
    """A fully traversable graph whose shadow contains a cycle is never
    isomorphic to its state graph."""
    met = g.underlying_has_cycle()
    return _never_isomorphic("thm-4.1", g, a, state_budget, "underlying_cycle", met)


# -- section 5: downward trees ------------------------------------------------


def verify_thm_5_1(
    tree: OrientedGraph,
    root_pebbles: int = 2,
    leaf_pebbles: dict[str, int] | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> VerificationReport:
    """A downward tree with two or three pebbles on the root, one on every
    other non-zero-valence vertex, and anything on the leaves is isomorphic
    to its state graph.

    Besides the searched witness, cross-checks the explicit map sending
    each vertex v to the state reached by pebbling along the unique
    root-to-v path.
    """
    a = tree_assignment(tree, root_pebbles, leaf_pebbles)
    try:
        ag = build(tree, a, state_budget)
    except BudgetExceededError as exc:
        return _budget_report("thm-5.1", a, exc)
    iso = built_isomorphism(tree, ag)
    explicit_ok = _explicit_tree_map_is_isomorphism(tree, ag)
    stats = {
        "states": len(ag.packed),
        "isomorphic": iso is not None,
        "explicit_map_verified": explicit_ok,
    }
    if iso is not None and explicit_ok:
        return _instance_report("thm-5.1", a, HOLDS, stats=stats, witness=iso.to_json_obj())
    return _instance_report("thm-5.1", a, COUNTEREXAMPLE, stats=stats)


def _explicit_tree_map_is_isomorphism(tree: OrientedGraph, ag: AssignmentGraph) -> bool:
    """Does psi, sending each vertex v to the state reached by pebbling along
    the root-to-v path, biject the vertices onto the states and the edges
    onto the transitions?  psi(w) is the end of the transition labelled
    (v, w) out of psi(v), so every tree edge lands on a transition by
    construction; the counts settle the rest."""
    edge_index = {e: i for i, e in enumerate(tree.edges)}
    psi: dict[str, int] = {}
    stack = [(v, ag.root) for v in tree.sources()]
    while stack:
        v, sid = stack.pop()
        psi[v] = sid
        for w in tree.out_neighbors(v):
            child = ag.successor(sid, edge_index[(v, w)])
            if child is None:
                return False
            stack.append((w, child))
    if len(set(psi.values())) != len(ag.packed) or len(psi) != len(tree.vertices):
        return False
    return len(tree.edges) == len(ag.labels)


def verify_thm_5_1_batch(
    trees: int,
    max_vertices: int,
    seed: int,
    leaf_cap: int = 9,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> VerificationReport:
    """Seeded batch: random downward trees with random leaf counts; the
    isomorphism must hold and every traversal count must equal one."""
    if trees < 1:
        raise GraphError(f"tree count must be at least 1, got {trees}")
    if max_vertices < 2:
        raise GraphError(f"max vertices must be at least 2, got {max_vertices}")
    if leaf_cap < 0:
        raise AssignmentError(f"leaf cap must be non-negative, got {leaf_cap}")
    rng = random.Random(seed)
    states_total = 0
    for i in range(trees):
        n = rng.randint(2, max_vertices)
        tree = random_downward_tree(rng, n)
        root_pebbles = rng.choice((2, 3))
        leaves = {v: rng.randint(0, leaf_cap) for v in tree.sinks()}
        report = verify_thm_5_1(tree, root_pebbles, leaves, state_budget)
        states_total += report.stats.get("states", 0)
        if report.verdict == HOLDS:
            report = verify_prop_1_1(tree, tree_assignment(tree, root_pebbles, leaves), state_budget)
        if report.verdict != HOLDS:
            report.stats["batch_index"] = i
            report.claim = "thm-5.1"
            return report
    return VerificationReport(
        "thm-5.1",
        f"{trees} random downward trees on up to {max_vertices} vertices (seed {seed})",
        HOLDS,
        stats={"instances": trees, "states_total": states_total},
        params={"random_trees": trees, "max_vertices": max_vertices, "seed": seed},
    )


# -- section 6: full classification -------------------------------------------


def verify_sec_6(vertex_cap: int, pebble_cap: int) -> tuple[VerificationReport, ClassificationResult]:
    """The fully traversable pairs isomorphic to their state graph are
    exactly the downward trees carrying the root-2-or-3 assignment, counting
    only the assignments within the pebble cap: the scan reaches no other."""
    result = search_isomorphic_pairs(vertex_cap, pebble_cap, ft_filter=True)
    found = {canonical_pair_key(p.graph, p.counts) for p in result.pairs}
    expected = set()
    for tree in enumerate_downward_trees(vertex_cap):
        if not tree.edges:
            continue
        for root_pebbles in (2, 3):
            a = tree_assignment(tree, root_pebbles)
            if max(a.counts) <= pebble_cap:
                expected.add(canonical_pair_key(tree, a.counts))
    verdict = HOLDS if found == expected else COUNTEREXAMPLE
    report = VerificationReport(
        "sec-6",
        f"all oriented graphs up to {vertex_cap} vertices, counts up to {pebble_cap}",
        verdict,
        stats={
            "scanned": result.scanned,
            "found_pairs": len(found),
            "expected_pairs": len(expected),
            "graph_classes": result.stats.get("graph_classes", 0),
        },
        params={"vertex_cap": vertex_cap, "pebble_cap": pebble_cap},
    )
    if verdict == COUNTEREXAMPLE:
        report.stats["unexpected"] = len(found - expected)
        report.stats["missing"] = len(expected - found)
    return report, result


# -- section 7: products of paths ---------------------------------------------


def _aggregate(claim: str, instance: str, reports: Iterable[VerificationReport], params: dict) -> VerificationReport:
    """Tally ``reports`` in one pass, keeping the first counterexample."""
    tally: Counter[str] = Counter()
    first = None
    for r in reports:
        tally[r.verdict] += 1
        if first is None and r.verdict == COUNTEREXAMPLE:
            first = r
    stats = {
        "instances": sum(tally.values()),
        "holds": tally[HOLDS],
        "hypothesis_not_met": tally[HYPOTHESIS_NOT_MET],
        "counterexamples": tally[COUNTEREXAMPLE],
        "budget_exceeded": tally[BUDGET_EXCEEDED],
    }
    report = VerificationReport(claim, instance, HOLDS, stats=stats, params=params)
    if first is not None:
        report.verdict = COUNTEREXAMPLE
        report.witness = first.witness
        report.instance_text = first.instance_text
    elif tally[BUDGET_EXCEEDED]:
        report.verdict = BUDGET_EXCEEDED
    elif not tally[HOLDS]:
        report.verdict = HYPOTHESIS_NOT_MET
    return report


def _product_report(
    claim: str, instance: str, factors: list[tuple[OrientedGraph, Assignment]], params: dict
) -> VerificationReport:
    """Whether the product of the pebbled ``factors`` is isomorphic to its
    state graph, with the witness, the product's size and its text."""
    g, a = product_assignment(factors)
    iso = state_graph_isomorphism(g, a)
    return VerificationReport(
        claim,
        instance,
        HOLDS if iso is not None else COUNTEREXAMPLE,
        witness=iso.to_json_obj() if iso else None,
        stats={"vertices": len(g.vertices), "edges": len(g.edges)},
        instance_text=format_assignment(a),
        params=params,
    )


def verify_thm_7_1(
    lengths: list[int],
    source_pebbles: list[int],
    sink_pebbles: list[int] | None = None,
) -> VerificationReport:
    """A product of paths with a simple pebbling is isomorphic to its state
    graph."""
    sinks = sink_pebbles or [0] * len(lengths)
    if not len(lengths) == len(source_pebbles) == len(sinks):
        raise GraphError(
            f"{len(lengths)} lengths, {len(source_pebbles)} source counts and "
            f"{len(sinks)} sink counts: one of each per factor"
        )
    factors = []
    for n, sp, sk in zip(lengths, source_pebbles, sinks):
        path = oriented_path(n)
        factors.append((path, simple_assignment(path, sp, sk)))
    return _product_report(
        "thm-7.1",
        "product of paths " + " x ".join(f"P{n}({sp})" for n, sp in zip(lengths, source_pebbles)),
        factors,
        {"lengths": list(lengths), "pebbles": list(source_pebbles), "sinks": list(sinks)},
    )


def verify_thm_7_1_sweep(max_factors: int = 3, max_length: int = 4) -> VerificationReport:
    if max_factors < 1:
        raise GraphError(f"max factors must be at least 1, got {max_factors}")
    if max_length < 2:
        raise GraphError(f"max length must be at least 2, got {max_length}")
    options = [(n, sp) for n in range(2, max_length + 1) for sp in (2, 3)]
    return _aggregate(
        "thm-7.1",
        f"all products of up to {max_factors} paths with lengths up to {max_length}, both source counts",
        (
            verify_thm_7_1([n for n, _ in combo], [sp for _, sp in combo])
            for r in range(1, max_factors + 1)
            for combo in combinations_with_replacement(options, r)
        ),
        {"sweep": True, "max_factors": max_factors, "max_length": max_length},
    )


def verify_lemma_7_1(
    n: int, k: int, sink_pebbles: int = 0, fill: int | dict[str, int] = 1
) -> VerificationReport:
    """k pebbles beside the sink: the state graph is a path of
    floor(k/2) + 1 states, so the path is isomorphic to it exactly when its
    length matches; gated on n = floor(k/2) + 1."""
    params = {"n": n, "k": k, "sink": sink_pebbles, "fill": fill if isinstance(fill, int) else dict(fill)}
    path = oriented_path(n)
    a = near_sink_assignment(path, k, sink_pebbles, fill)
    if n != k // 2 + 1:
        return _instance_report(
            "lem-7.1", a, HYPOTHESIS_NOT_MET, params, stats={"required_length": k // 2 + 1}
        )
    iso = state_graph_isomorphism(path, a)
    return _instance_report(
        "lem-7.1",
        a,
        HOLDS if iso is not None else COUNTEREXAMPLE,
        params,
        stats={"n": n, "k": k},
        witness=iso.to_json_obj() if iso else None,
    )


def verify_lemma_7_1_sweep(max_k: int = 8) -> VerificationReport:
    if max_k < 2:
        raise GraphError(f"max k must be at least 2, got {max_k}")
    return _aggregate(
        "lem-7.1",
        f"k from 2 to {max_k} with the matching path length, all fill choices",
        (
            verify_lemma_7_1(k // 2 + 1, k, fill={f"a{i + 1}": b for i, b in enumerate(bits)})
            for k in range(2, max_k + 1)
            for bits in product((0, 1), repeat=k // 2 - 1)
        ),
        {"sweep": True, "max_k": max_k},
    )


def verify_lemma_7_2(
    n: int,
    position: int,
    heavy: int,
    sink_pebbles: int = 0,
    fill: int | dict[str, int] = 0,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> VerificationReport:
    """Four or five pebbles followed by an empty vertex: gated on exactly
    n - 2 edges being traversed (computed from the build, never assumed)."""
    params = {
        "n": n,
        "position": position,
        "heavy": heavy,
        "sink": sink_pebbles,
        "fill": fill if isinstance(fill, int) else dict(fill),
    }
    path = oriented_path(n)
    a = heavy_step_assignment(path, position, heavy, sink_pebbles, fill)
    try:
        ag = build(path, a, state_budget)
    except BudgetExceededError as exc:
        return _budget_report("lem-7.2", a, exc, params)
    traversed = sum(1 for c in ag.traversal_counts().values() if c >= 1)
    stats = {"n": n, "position": position, "heavy": heavy, "traversed_edges": traversed}
    if traversed != n - 2:
        return _instance_report("lem-7.2", a, HYPOTHESIS_NOT_MET, params, stats=stats)
    iso = built_isomorphism(path, ag)
    return _instance_report(
        "lem-7.2",
        a,
        HOLDS if iso is not None else COUNTEREXAMPLE,
        params,
        stats=stats,
        witness=iso.to_json_obj() if iso else None,
    )


def verify_lemma_7_2_sweep(max_n: int = 6) -> VerificationReport:
    if max_n < 3:
        raise GraphError(f"max n must be at least 3, got {max_n}")

    def reports():
        for n in range(3, max_n + 1):
            for position in range(1, n - 1):
                free = [f"a{i}" for i in range(1, n) if i not in (position, position + 1)]
                for heavy in (4, 5):
                    for bits in product((0, 1), repeat=len(free)):
                        yield verify_lemma_7_2(n, position, heavy, fill=dict(zip(free, bits)))

    return _aggregate(
        "lem-7.2",
        f"paths up to {max_n} vertices, every heavy placement and fill choice",
        reports(),
        {"sweep": True, "max_n": max_n},
    )


def verify_cor_7_1(
    factors: list[tuple[OrientedGraph, Assignment]],
    factor_specs: list[str] | None = None,
) -> VerificationReport:
    """Products of paths with almost simple pebblings: gated on each factor
    being isomorphic to its own state graph."""
    params = {"factors": list(factor_specs or [])}
    gates = [state_graph_isomorphism(path, a) is not None for path, a in factors]
    if not all(gates):
        return VerificationReport(
            "cor-7.1",
            f"product of {len(factors)} pebbled paths",
            HYPOTHESIS_NOT_MET,
            stats={"factor_isomorphic": gates},
            params=params,
        )
    return _product_report("cor-7.1", f"product of {len(factors)} pebbled paths", factors, params)


def verify_thm_7_2(
    n: int,
    m: int,
    source_pebbles: int = 2,
    search_cap: int = 4,
    state_budget: int = DEFAULT_STATE_BUDGET,
    search_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> VerificationReport:
    """Build the state graph of the oriented complete bipartite graph with
    two or three pebbles per source, then (a) find the bipartite pattern as
    an oriented subgraph of it and (b) search bounded assignments making it
    isomorphic to its own state graph.  ``search_budget`` bounds the
    subgraph search's candidates and the assignment indices covered.  Of
    those, only the `classify._candidates` groups are built, since the
    construction is graded and every other assignment fails the pair test's
    exits, and the least-index hit, a hit group's least base, is reported.

    The assignment search is best effort: exhausting the cap without a
    finding is reported as budget-exceeded, not as a refutation.
    """
    _check_cap(search_cap)
    params = {"n": n, "m": m, "pebbles": source_pebbles, "search_cap": search_cap}

    def report(verdict: str, what: str = " inside its own state graph", **kwargs):
        return VerificationReport("thm-7.2", f"K({n},{m}){what}", verdict, params=params, **kwargs)

    k_graph = oriented_complete_bipartite(n, m)
    a_k = Assignment(k_graph, {f"a{i}": source_pebbles for i in range(1, n + 1)})
    try:
        ag = build(k_graph, a_k, state_budget)
    except BudgetExceededError as exc:
        return report(BUDGET_EXCEEDED, "", stats={exc.resource: exc.budget})
    g = ag.as_oriented_graph()
    stats = {"construction_vertices": len(g.vertices), "construction_edges": len(g.edges)}
    try:
        submap = find_oriented_subgraph(k_graph, g, search_budget)
    except BudgetExceededError as exc:
        stats[exc.resource] = exc.budget
        notes = ("the oriented-subgraph search hit its search budget",)
        return report(BUDGET_EXCEEDED, stats=stats, notes=notes)
    if submap is None:
        notes = ("the bipartite pattern does not occur as an oriented subgraph",)
        return report(COUNTEREXAMPLE, stats=stats, notes=notes)
    found = min(_hits(g, search_cap, search_budget), key=lambda hit: hit[0], default=None)
    if found:
        idx, counts, _, _, iso = found
        candidate = Assignment(g, counts)
        stats["assignments_scanned"] = idx + 1
        witness = {
            "subgraph": submap.mapping,
            "assignment": candidate.as_dict(),
            "isomorphism": iso.to_json_obj()["map"],
        }
        return report(HOLDS, witness=witness, stats=stats, instance_text=format_assignment(candidate))
    box = _box_size(g, search_cap)
    if box > search_budget:
        stats.update(assignments_scanned=search_budget, search_budget=search_budget)
        return report(BUDGET_EXCEEDED, " construction", stats=stats)
    stats["assignments_scanned"] = box
    notes = (f"no isomorphic assignment with counts up to {search_cap}; absence beyond the cap unproven",)
    return report(BUDGET_EXCEEDED, stats=stats, notes=notes)


# -- section 8: undirected isomorphism ----------------------------------------


def construct_thm_8_1(
    g: OrientedGraph,
    a: Assignment,
    state_budget: int = DEFAULT_STATE_BUDGET,
    search_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> tuple[OrientedGraph, Assignment, VerificationReport]:
    """When the graph embeds as an induced undirected subgraph of its state
    graph's shadow, reorient that shadow into a host graph: copy the
    original orientation onto the embedded copy, point every edge touching
    exactly one copy vertex toward the copy, orient the rest from lower to
    higher state id, and pebble only the copy.

    The host's state graph then has exactly the original's states, and the
    host is isomorphic to it as undirected graphs.
    """
    ag = build(g, a, state_budget)
    state_graph = ag.as_oriented_graph()
    embedding = find_induced_undirected_embedding(g, state_graph, search_budget)
    if embedding is None:
        raise EmbeddingNotFoundError(
            "the graph is not an induced undirected subgraph of its state graph"
        )
    into_copy = {target: source for source, target in embedding.pairs}

    edges = []
    for x, y in state_graph.edges:
        gx, gy = into_copy.get(x), into_copy.get(y)
        if gx is not None and gy is not None:
            edges.append((x, y) if g.has_edge(gx, gy) else (y, x))
        elif gx is not None:
            edges.append((y, x))
        elif gy is not None:
            edges.append((x, y))
        else:
            edges.append((x, y) if int(x) < int(y) else (y, x))
    host = OrientedGraph(state_graph.vertices, edges)
    host_counts = {target: a[source] for source, target in embedding.pairs}
    host_assignment = Assignment(host, host_counts)

    ag_host = build(host, host_assignment, state_budget)
    shadow_iso = undirected_isomorphic(host, ag_host.as_oriented_graph())
    same_states = len(ag_host.packed) == len(ag.packed)
    verdict = HOLDS if (shadow_iso is not None and same_states) else COUNTEREXAMPLE
    report = VerificationReport(
        "thm-8.1",
        _describe(a),
        verdict,
        witness={
            "embedding": embedding.to_json_obj()["map"],
            "undirected_isomorphism": shadow_iso.to_json_obj()["map"] if shadow_iso else None,
        },
        stats={
            "original_states": len(ag.packed),
            "host_states": len(ag_host.packed),
            "host_vertices": len(host.vertices),
        },
        instance_text=format_assignment(a),
        params={"input": format_assignment(a)},
    )
    return host, host_assignment, report


# -- claim registry -----------------------------------------------------------


# kind -> (assignment builder, the keys it reads after n, in argument order,
# with their defaults)
_PATH_SPECS = {
    "simple": (simple_assignment, {"src": 2, "sink": 0}),
    "nearsink": (near_sink_assignment, {"k": 0, "sink": 0, "fill": 1}),
    "heavystep": (heavy_step_assignment, {"p": 1, "heavy": 4, "sink": 0, "fill": 1}),
}


def parse_path_spec(spec: str) -> tuple[OrientedGraph, Assignment]:
    """Build a pebbled path from a spec like ``simple:n=3,src=2,sink=0``,
    ``nearsink:n=3,k=4`` or ``heavystep:n=4,p=1,heavy=4``."""
    kind, _, rest = spec.partition(":")
    if kind not in _PATH_SPECS:
        raise GraphError(f"unknown path spec kind {kind!r}")
    assign, defaults = _PATH_SPECS[kind]
    try:
        items = [(k, int(v)) for k, v in (item.split("=", 1) for item in rest.split(",") if item)]
    except ValueError as exc:
        raise GraphError(f"bad path spec {spec!r}: {exc}") from None
    kv = dict(items)
    repeated = [k for k, c in Counter(k for k, _ in items).items() if c > 1]
    if repeated:
        raise GraphError(f"path spec {spec!r} repeats the key {repeated[0]!r}")
    unread = [k for k in kv if k != "n" and k not in defaults]
    if unread:
        keys = ", ".join(["n", *defaults])
        raise GraphError(f"path spec kind {kind!r} does not read {unread[0]!r}; it reads {keys}")
    path = oriented_path(kv.get("n", 0))
    return path, assign(path, *(kv.get(k, d) for k, d in defaults.items()))


def _thm_5_1_on_instance(input: str, state_budget: int) -> VerificationReport:
    """thm-5.1 on an instance text, gated on the instance being a downward
    tree with the theorem's assignment."""
    g, a = parse_graph_text(input)
    root = g.is_downward_tree()
    if root is None:
        reason = "not a downward directed rooted tree"
    elif a[root] not in (2, 3):
        reason = f"root holds {a[root]} pebbles, needs 2 or 3"
    else:
        bad = [v for v in g.vertices if v != root and g.valence(v) >= 1 and a[v] != 1]
        if not bad:
            leaves = {v: a[v] for v in g.sinks() if v != root}
            return verify_thm_5_1(g, a[root], leaves, state_budget)
        reason = f"non-root vertex {bad[0]!r} with outgoing edges holds {a[bad[0]]} pebbles, needs 1"
    return _instance_report("thm-5.1", a, HYPOTHESIS_NOT_MET, stats={"reason": reason})


def _thm_8_1_on_instance(input: str, state_budget: int, search_budget: int):
    g, a = parse_graph_text(input)
    try:
        host, host_assignment, report = construct_thm_8_1(g, a, state_budget, search_budget)
    except EmbeddingNotFoundError as exc:
        return _instance_report("thm-8.1", a, HYPOTHESIS_NOT_MET, stats={"reason": str(exc)})
    except BudgetExceededError as exc:
        return _budget_report("thm-8.1", a, exc)
    return report, (host, host_assignment)


# The type each claim parameter's value must have; parameters not listed
# here (counts, caps, budgets) are ints.
_KEY_TYPES = {
    "input": str, "sweep": bool, "lengths": list, "sinks": list, "factors": list, "fill": (int, dict)
}
_BUDGET_KEYS = ("state_budget", "search_budget")


class ClaimForm:
    """One way to run a claim: ``run`` takes the parameters as keywords and
    returns a report or ``(report, extra)``.  Its signature is the schema:
    ``keys`` maps each parameter it names (budgets included) to the type
    its value must have, and ``required`` lists those without a default
    that `run_claim` does not supply.  ``host`` marks the form whose extra
    is a host graph and its assignment."""

    def __init__(self, run: Callable, types: dict | None = None, host: bool = False):
        names = inspect.signature(run).parameters.values()
        types = {**_KEY_TYPES, **(types or {})}
        self.run, self.host = run, host
        self.keys = {p.name: types.get(p.name, int) for p in names}
        self.required = tuple(
            p.name for p in names if p.default is p.empty and p.name not in _BUDGET_KEYS
        )

    def reads(self, key: str, kind: type) -> bool:
        """Does this form read ``key`` with values of type ``kind``?"""
        return key in self.keys and issubclass(kind, self.keys[key])


def _on_instance(check: Callable) -> tuple[ClaimForm]:
    return (ClaimForm(lambda input, state_budget: check(*parse_graph_text(input), state_budget)),)


# Claim id -> its forms.  A form other than the last is taken when its first
# required key is given (a sweep or a seeded batch); the last is the default.
# Checkers are named inside lambdas, so they are looked up at call time.
CLAIMS: dict[str, tuple[ClaimForm, ...]] = {
    "prop-1.1": _on_instance(lambda *args: verify_prop_1_1(*args)),
    "cor-1.1": _on_instance(lambda *args: verify_cor_1_1(*args)),
    "cor-1.2": _on_instance(lambda *args: verify_cor_1_2(*args)),
    "thm-2.1": _on_instance(lambda *args: check_thm_2_1(*args)),
    "thm-2.2": _on_instance(lambda *args: verify_thm_2_2(*args)),
    "cor-2.1": (ClaimForm(lambda cap=6: verify_cor_2_1(cap)),),
    "thm-3.1": (ClaimForm(lambda k, cap=4: verify_thm_3_1(k, cap)),),
    "thm-4.1": _on_instance(lambda *args: verify_thm_4_1(*args)),
    "thm-5.1": (
        ClaimForm(
            lambda random_trees, state_budget, max_vertices=12, seed=0: verify_thm_5_1_batch(
                random_trees, max_vertices, seed, state_budget=state_budget
            )
        ),
        ClaimForm(_thm_5_1_on_instance),
    ),
    "sec-6": (ClaimForm(lambda vertex_cap=4, pebble_cap=4: verify_sec_6(vertex_cap, pebble_cap)),),
    "thm-7.1": (
        ClaimForm(
            lambda sweep, max_factors=3, max_length=4: verify_thm_7_1_sweep(max_factors, max_length)
        ),
        ClaimForm(
            lambda lengths, pebbles, sinks=None: verify_thm_7_1(lengths, pebbles, sinks),
            types={"pebbles": list},
        ),
    ),
    "lem-7.1": (
        ClaimForm(lambda sweep, max_k=8: verify_lemma_7_1_sweep(max_k)),
        ClaimForm(lambda n, k, sink=0, fill=1: verify_lemma_7_1(n, k, sink, fill)),
    ),
    "lem-7.2": (
        ClaimForm(lambda sweep, max_n=6: verify_lemma_7_2_sweep(max_n)),
        ClaimForm(
            lambda n, position, heavy, state_budget, sink=0, fill=0: verify_lemma_7_2(
                n, position, heavy, sink, fill, state_budget
            )
        ),
    ),
    "cor-7.1": (
        ClaimForm(
            lambda factors: verify_cor_7_1([parse_path_spec(spec) for spec in factors], factors)
        ),
    ),
    "thm-7.2": (
        ClaimForm(
            lambda n, m, state_budget, search_budget, pebbles=2, search_cap=4: verify_thm_7_2(
                n, m, pebbles, search_cap, state_budget, search_budget
            )
        ),
    ),
    "thm-8.1": (ClaimForm(_thm_8_1_on_instance, host=True),),
}

CLAIM_IDS = tuple(CLAIMS)


def claim_form(claim: str, params: dict) -> ClaimForm:
    """The form of ``claim`` that ``params`` selects."""
    if claim not in CLAIMS:
        raise UnknownClaimError(f"unknown claim {claim!r}; valid ids: {', '.join(CLAIM_IDS)}")
    *selectable, default = CLAIMS[claim]
    return next((form for form in selectable if form.required[0] in params), default)


def run_claim(
    claim: str,
    params: dict,
    state_budget: int = DEFAULT_STATE_BUDGET,
    search_budget: int = DEFAULT_EXPANSION_BUDGET,
) -> tuple[VerificationReport, object | None]:
    """Run one claim checker from JSON-able parameters.

    Returns the report plus an optional extra artifact (a classification
    result, or the constructed host graph and assignment).  The budgets go
    to the claims that read them, unless ``params`` sets them.
    Raises UnknownClaimError for an unknown claim or a parameter that its
    form needs and lacks, does not read, or reads as another type.
    """
    form = claim_form(claim, params)
    budgets = zip(_BUDGET_KEYS, (state_budget, search_budget))
    kwargs = {key: value for key, value in budgets if key in form.keys}
    kwargs.update(params)
    for key, value in kwargs.items():
        if not isinstance(value, form.keys.get(key, ())):
            raise UnknownClaimError(
                f"claim {claim!r} does not read {key!r} as {type(value).__name__}; "
                f"it reads {', '.join(form.keys)}"
            )
    missing = [key for key in form.required if key not in kwargs]
    if missing:
        raise UnknownClaimError(f"claim {claim!r} needs {', '.join(missing)}")
    out = form.run(**kwargs)
    return out if isinstance(out, tuple) else (out, None)


def replay(report: VerificationReport, **kwargs) -> VerificationReport:
    """Re-run the checker on the instance embedded in a report."""
    return run_claim(report.claim, report.params, **kwargs)[0]

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pebblab import COUNTEREXAMPLE, DEFAULT_STATE_BUDGET, HOLDS, oriented_path, parse_graph_text, theorems, verify_thm_5_1
from pebblab.classify import state_graph_isomorphism
from pebblab.cli import main
from pebblab.theorems import replay, verify_thm_5_1_batch

FOUR_CYCLE_ROOT4 = """\
v top 4
v l1 0
v r1 0
v bottom 0
e top l1
e l1 bottom
e top r1
e r1 bottom
"""

TREE_SIMPLE = "v a 2\nv b 1\nv c 0\ne a b\ne b c\n"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text(FOUR_CYCLE_ROOT4)
    return str(path)


def test_build_summary_and_dot(tmp_path, capsys, instance_file):
    dot = tmp_path / "out.dot"
    js = tmp_path / "out.json"
    code = main(["build", instance_file, "--dot", str(dot), "--json", str(js)])
    out = capsys.readouterr().out
    assert code == 0
    assert "7 states, 8 edges, fully traversable: true" in out
    assert "top->l1: 3" in out
    assert dot.read_text().startswith("digraph assignment_graph {")
    payload = json.loads(js.read_text())
    assert len(payload["states"]) == 7
    assert payload["root"] == 0


def test_build_summary_never_unpacks_a_state(capsys, instance_file, monkeypatch):
    from pebblab import assignment_graph

    def refuse(self, s):
        raise AssertionError("a state was unpacked")

    monkeypatch.setattr(assignment_graph._Layout, "unpack", refuse)
    assert main(["build", instance_file]) == 0
    assert capsys.readouterr().out.startswith("7 states, 8 edges, fully traversable: true\n")


def test_build_single_vertex(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("v a\n")
    assert main(["build", str(path)]) == 0
    assert "1 states, 0 edges" in capsys.readouterr().out


def test_build_parse_error_cites_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("v a\ne a\n")
    assert main(["build", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_build_budget_exit(tmp_path, capsys, instance_file):
    assert main(["build", instance_file, "--budget", "3"]) == 3
    assert main(["build", instance_file, "--budget", "7"]) == 0


def test_iso_command(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text(TREE_SIMPLE)
    state_graph = tmp_path / "sg.txt"
    state_graph.write_text("v s0\nv s1\nv s2\ne s0 s1\ne s1 s2\n")
    assert main(["iso", str(tree), str(state_graph)]) == 0
    witness = json.loads(capsys.readouterr().out)
    assert witness["mode"] == "directed"

    p4 = tmp_path / "p4.txt"
    p4.write_text("v a\nv b\nv c\nv d\ne a b\ne b c\ne c d\n")
    assert main(["iso", str(tree), str(p4)]) == 1


def test_iso_mode_matters(tmp_path, capsys):
    forward = tmp_path / "f.txt"
    forward.write_text("v a\nv b\nv c\ne a b\ne b c\n")
    middle_out = tmp_path / "m.txt"
    middle_out.write_text("v a\nv b\nv c\ne b a\ne b c\n")
    assert main(["iso", str(forward), str(middle_out), "--mode", "directed"]) == 1
    assert main(["iso", str(forward), str(middle_out), "--mode", "undirected"]) == 0


def test_verify_cor_2_1(capsys):
    code = main(["verify", "cor-2.1", "--cap", "6", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "holds"
    assert len(payload["witness"]["families"]) == 6
    assert payload["classification"]["pairs"]


def test_verify_thm_3_1(capsys):
    assert main(["verify", "thm-3.1", "--k", "6", "--cap", "3"]) == 0
    assert "verdict:  holds" in capsys.readouterr().out


def test_verify_instance_claims(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text(TREE_SIMPLE)
    for claim in ("prop-1.1", "cor-1.1", "thm-5.1"):
        assert main(["verify", claim, "--input", str(tree)]) == 0
    # counterexample exit: heavy leaf on a fully traversable tree
    heavy = tmp_path / "heavy.txt"
    heavy.write_text("v a 2\nv b 9\ne a b\n")
    assert main(["verify", "cor-1.1", "--input", str(heavy)]) == 1


def test_thm_5_1_on_a_path_deeper_than_the_recursion_limit(tmp_path, capsys):
    """The isomorphism search places one vertex per depth without recursing,
    so a 1,200-vertex downward path holds through the library and the CLI."""
    n = 1200
    assert verify_thm_5_1(oriented_path(n), 2).verdict == HOLDS
    lines = ["v a1 2", *(f"v a{i} 1" for i in range(2, n)), f"v a{n} 0"]
    lines += [f"e a{i} a{i + 1}" for i in range(1, n)]
    path = tmp_path / "path.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "thm-5.1", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == HOLDS


def test_verify_sec_6_below_pebble_cap_3_expects_only_reachable_trees(capsys):
    # the root-3 tree assignments lie beyond the scan at these caps
    for cap, expected in (("2", 3), ("1", 0)):
        code = main(["verify", "sec-6", "--vertex-cap", "3", "--pebble-cap", cap, "--format", "json"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["expected_pairs"] == stats["found_pairs"] == expected


def test_verify_random_trees_batch(capsys):
    code = main(
        ["verify", "thm-5.1", "--random-trees", "20", "--max-vertices", "8",
         "--seed", "7", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["instances"] == 20


def test_verify_sweeps(capsys):
    assert main(["verify", "thm-7.1", "--sweep", "--max-factors", "2", "--max-length", "3"]) == 0
    assert main(["verify", "lem-7.1", "--sweep", "--max-k", "5"]) == 0
    assert main(["verify", "lem-7.2", "--sweep", "--max-n", "4"]) == 0


def test_verify_single_section_7_claims(capsys):
    assert main(["verify", "thm-7.1", "--lengths", "2,3", "--path-pebbles", "2,3"]) == 0
    assert main(["verify", "lem-7.1", "--n", "3", "--k", "4"]) == 0
    assert main(["verify", "lem-7.2", "--n", "4", "--position", "1", "--heavy", "4", "--fill", "0"]) == 0
    assert main(
        ["verify", "cor-7.1", "--factor", "nearsink:n=3,k=4", "--factor", "simple:n=2,src=2"]
    ) == 0
    assert main(["verify", "thm-7.2", "--n", "2", "--m", "1"]) == 0


def test_verify_thm_8_1_emits_host(tmp_path, capsys, instance_file):
    host_path = tmp_path / "host.txt"
    code = main(["verify", "thm-8.1", "--input", instance_file, "--emit-graph", str(host_path)])
    assert code == 0
    from pebblab import parse_graph_text

    host, host_a = parse_graph_text(host_path.read_text())
    assert len(host.vertices) == 7
    assert host_a.total == 4


def test_verify_unknown_claim(capsys):
    assert main(["verify", "thm-0.0"]) == 2
    err = capsys.readouterr().err
    assert "valid ids" in err and "cor-2.1" in err


def test_search_command(capsys):
    code = main(["search", "--max-vertices", "2", "--pebble-cap", "4",
                 "--fully-traversable", "yes", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["pairs"]) == 2  # one-edge trees with source 2 and 3


SEARCH_3_3_TABLE = """\
7 isomorphic pairs (127 assignments scanned)
  1v/0e not-ft  v0=any
  2v/1e ft  v0=2 v1=any
  2v/1e ft  v0=3 v1=any
  3v/2e ft  v0=2 v1=any v2=1
  3v/2e ft  v0=3 v1=any v2=1
  3v/2e ft  v0=any v1=any v2=2
  3v/2e ft  v0=any v1=any v2=3
"""

COR_2_1_CAP_4_TABLE = """\
claim:    cor-2.1
instance: downward 4-cycle, non-sink counts up to 4, sink symbolic
verdict:  holds
  families: 6
  scanned: 125
6 isomorphic pairs (125 assignments scanned)
  4v/4e not-ft  top=0 l1=2 r1=2 bottom=any
  4v/4e not-ft  top=1 l1=2 r1=2 bottom=any
  4v/4e not-ft  top=0 l1=2 r1=3 bottom=any
  4v/4e not-ft  top=1 l1=2 r1=3 bottom=any
  4v/4e not-ft  top=0 l1=3 r1=3 bottom=any
  4v/4e not-ft  top=1 l1=3 r1=3 bottom=any
"""


def test_search_reports_its_work_on_stderr_only(capsys):
    assert main(["search", "--max-vertices", "3", "--pebble-cap", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == SEARCH_3_3_TABLE
    assert re.fullmatch(
        r"search: 7 pairs, 127 assignments scanned over 10 classes in \d+\.\d\ds\n", captured.err
    )


def test_table_outputs_are_frozen(capsys):
    assert main(["search", "--max-vertices", "3", "--pebble-cap", "3"]) == 0
    assert capsys.readouterr().out == SEARCH_3_3_TABLE
    assert main(["verify", "cor-2.1", "--cap", "4"]) == 0
    assert capsys.readouterr().out == COR_2_1_CAP_4_TABLE


@pytest.mark.parametrize(
    "text, reason",
    [
        (FOUR_CYCLE_ROOT4, "not a downward directed rooted tree"),
        ("v a 4\nv b 1\nv c 0\ne a b\ne b c\n", "root holds 4 pebbles, needs 2 or 3"),
    ],
)
def test_thm_5_1_input_outside_its_hypothesis(tmp_path, capsys, text, reason):
    path = tmp_path / "instance.txt"
    path.write_text(text)
    assert main(["verify", "thm-5.1", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict:  hypothesis-not-met\n" in out
    assert f"  reason: {reason}\n" in out


# -- what a counterexample to the paper would print ----------------------------
# No real input reaches these reports, so each test plants a fake result.


def _replays_to(report: dict, a) -> None:
    from pebblab import parse_graph_text

    g, b = parse_graph_text(report["instance_text"])
    assert g == a.graph and b.as_dict() == a.as_dict()


def test_thm_3_1_counterexample_names_the_isomorphic_assignment(capsys, monkeypatch):
    import pebblab.classify as classify
    from pebblab import Assignment, downward_cycle

    real = classify.built_isomorphism
    # Two pebbles on the top make two legal moves, as the top has two
    # out-edges, and one pebble on each of its out-neighbours gives each
    # child one move, as each out-neighbour has valence 1.  Each child's
    # move reaches its own grandchild, so the two level-2 states have
    # in-degree 1, as l2 and r2 do; so the scan visits this vector, and its
    # five states fit the scan's cap of six.
    planted = Assignment(downward_cycle(6), {"top": 2, "l1": 1, "r1": 1})
    monkeypatch.setattr(
        classify, "built_isomorphism", lambda g, ag: "fake" if ag.states[0] == planted.counts else real(g, ag)
    )
    assert main(["verify", "thm-3.1", "--k", "6", "--cap", "2", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "counterexample"
    assert report["stats"] == {"k": 6, "pebble_cap": 2, "scanned": 243, "isomorphic_found": 1}
    assert report["witness"] == {"assignment": planted.as_dict()}
    _replays_to(report, planted)


def test_sec_6_counterexample_counts_unexpected_and_missing_pairs(capsys, monkeypatch):
    from pebblab import oriented_path, theorems
    from pebblab.classify import ClassifiedPair

    real = theorems.search_isomorphic_pairs

    def planted(*args, **kwargs):
        result = real(*args, **kwargs)
        del result.pairs[0]
        result.pairs.append(ClassifiedPair(oriented_path(2), (4, 0), True))
        return result

    monkeypatch.setattr(theorems, "search_isomorphic_pairs", planted)
    assert main(["verify", "sec-6", "--vertex-cap", "3", "--pebble-cap", "3", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "counterexample"
    assert report["stats"] == {
        "scanned": 127,
        "found_pairs": 6,
        "expected_pairs": 6,
        "graph_classes": 10,
        "unexpected": 1,
        "missing": 1,
    }


@pytest.mark.parametrize(
    "verdicts, verdict, code",
    [
        (["holds", "counterexample", "budget-exceeded", "hypothesis-not-met"], "counterexample", 1),
        (["holds", "budget-exceeded", "hypothesis-not-met", "holds"], "budget-exceeded", 3),
        (["hypothesis-not-met"] * 4, "hypothesis-not-met", 0),
    ],
)
def test_a_sweep_reports_its_worst_instance(capsys, monkeypatch, verdicts, verdict, code):
    from dataclasses import replace

    from pebblab import oriented_path, theorems
    from pebblab.pebbling import near_sink_assignment

    real, planted = theorems.verify_lemma_7_1, iter(verdicts)
    reports = []

    def fake(*args, **kwargs):
        reports.append(replace(real(*args, **kwargs), verdict=next(planted)))
        return reports[-1]

    monkeypatch.setattr(theorems, "verify_lemma_7_1", fake)
    assert main(["verify", "lem-7.1", "--sweep", "--max-k", "4", "--format", "json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == verdict
    assert report["stats"] == {
        "instances": 4,
        "holds": verdicts.count("holds"),
        "hypothesis_not_met": verdicts.count("hypothesis-not-met"),
        "counterexamples": verdicts.count("counterexample"),
        "budget_exceeded": verdicts.count("budget-exceeded"),
    }
    if verdict == "counterexample":
        first = reports[verdicts.index("counterexample")]
        assert report["witness"] == first.witness and first.witness
        assert report["instance_text"] == first.instance_text
        _replays_to(report, near_sink_assignment(oriented_path(2), 3, 0, {}))
    else:
        assert "witness" not in report and "instance_text" not in report


def test_outputs_are_deterministic(tmp_path, capsys, instance_file):
    runs = []
    for _ in range(2):
        main(["verify", "cor-2.1", "--cap", "4", "--format", "json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]

    dots = []
    for i in range(2):
        dot = tmp_path / f"d{i}.dot"
        main(["build", instance_file, "--dot", str(dot)])
        dots.append(dot.read_bytes())
    capsys.readouterr()
    assert dots[0] == dots[1]


def _exit_code(argv: list[str]) -> int:
    """`main`'s exit code, including argparse's own usage errors."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Each case keeps a fixed key, the position it once had, so removing a case
# renames no other: the test id is the key and the message.
@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(argv, message, id=f"{key}-{message}")
        for key, argv, message in [
            ("argv0", ["verify", "thm-3.1"], "needs --k"),
            ("argv1", ["verify", "thm-7.1"], "needs --lengths, --path-pebbles"),
            ("argv2", ["verify", "lem-7.1"], "needs --k, --n"),
            ("argv3", ["verify", "lem-7.2"], "needs --n, --position, --heavy"),
            ("argv4", ["verify", "thm-7.2", "--n", "2"], "needs --m"),
            ("argv5", ["verify", "cor-7.1"], "needs --factor"),
            ("argv6", ["verify", "thm-5.1"], "needs --input"),
            ("argv7", ["verify", "cor-2.1", "--cap", "3"], "pebble cap must be at least 4"),
            ("argv8", ["verify", "thm-7.1", "--lengths", "2,x", "--path-pebbles", "2,3"], "'2,x'"),
            (
                "argv9",
                ["verify", "thm-3.1", "--k", "6", "--pebble-cap", "5"],
                "does not read --pebble-cap; it accepts --cap, --k, --format and --output",
            ),
            ("argv10", ["verify", "sec-6", "--cap", "2"], "does not read --cap"),
            ("argv11", ["verify", "sec-6", "--budget", "5"], "does not read --budget"),
            ("argv12", ["verify", "cor-2.1", "--search-budget", "5"], "does not read --search-budget"),
            ("argv13", ["verify", "thm-7.1", "--sweep", "--seed", "2"], "does not read --seed"),
            ("argv14", ["verify", "thm-3.1", "--k", "6", "--emit-graph", "x"], "does not read --emit-graph"),
            ("argv15", ["verify", "thm-7.1", "--lengths", "2", "--pebbles", "2"], "does not read --pebbles"),
            ("argv16", ["verify", "thm-7.2", "--n", "2", "--m", "1", "--sweep"], "does not read --sweep"),
            ("argv17", ["verify", "thm-7.1", "--lengths", "2,3", "--path-pebbles", "2"], "one of each per factor"),
            ("argv18", ["verify", "thm-3.1", "--k", "6", "--cap", "-1"], "pebble cap must be non-negative"),
            (
                "argv19",
                ["verify", "sec-6", "--vertex-cap", "-1", "--pebble-cap", "3"],
                "vertex cap must be at least 1, got -1",
            ),
            (
                "argv20",
                ["verify", "sec-6", "--vertex-cap", "3", "--pebble-cap", "-2"],
                "pebble cap must be non-negative",
            ),
            ("argv21", ["search", "--max-vertices", "3", "--pebble-cap", "-1"], "pebble cap must be non-negative"),
            ("argv22", ["build", "cycle.txt", "--budget", "0"], "argument --budget: must be at least 1, got 0"),
            ("argv23", ["verify", "thm-2.1", "--input", "cycle.txt", "--budget", "0"], "argument --budget"),
            (
                "argv24",
                ["verify", "thm-7.2", "--n", "2", "--m", "1", "--search-budget", "0"],
                "argument --search-budget",
            ),
            ("argv25", ["verify", "thm-3.1", "--k", "6", "--shards", "2"], "unrecognized arguments: --shards 2"),
            (
                "argv26",
                ["search", "--max-vertices", "2", "--pebble-cap", "2", "--shards", "2"],
                "unrecognized arguments: --shards 2",
            ),
            ("argv27", ["verify", "thm-5.1", "--random-trees", "0"], "tree count must be at least 1, got 0"),
            ("argv28", ["verify", "thm-5.1", "--random-trees", "-1"], "tree count must be at least 1, got -1"),
            (
                "argv29",
                ["verify", "thm-5.1", "--random-trees", "3", "--max-vertices", "1"],
                "max vertices must be at least 2, got 1",
            ),
            (
                "argv30",
                ["verify", "thm-7.1", "--sweep", "--max-factors", "-1"],
                "max factors must be at least 1, got -1",
            ),
            ("argv31", ["verify", "thm-7.1", "--sweep", "--max-length", "1"], "max length must be at least 2, got 1"),
            ("argv32", ["verify", "lem-7.1", "--sweep", "--max-k", "-3"], "max k must be at least 2, got -3"),
            ("argv33", ["verify", "lem-7.2", "--sweep", "--max-n", "0"], "max n must be at least 3, got 0"),
            (
                "argv34",
                ["verify", "sec-6", "--vertex-cap", "0", "--pebble-cap", "3"],
                "vertex cap must be at least 1, got 0",
            ),
            ("argv35", ["verify", "cor-7.1", "--factor", "simple:n=3,src=2,sinks=5"], "does not read 'sinks'"),
            ("argv36", ["verify", "cor-7.1", "--factor", "bogus"], "unknown path spec kind 'bogus'"),
            ("argv37", ["verify", "cor-7.1", "--factor", "simple:n=3,n=2,src=2"], "repeats the key 'n'"),
            ("argv38", ["search", "--max-vertices", "0", "--pebble-cap", "-1"], "pebble cap must be non-negative"),
            ("argv39", ["search", "--max-vertices", "0", "--pebble-cap", "2"], "vertex cap must be at least 1, got 0"),
            ("argv40", ["search", "--max-vertices", "-1", "--pebble-cap", "2"], "vertex cap must be at least 1, got -1"),
        ]
    ],
)
def test_verify_usage_errors_exit_2(capsys, argv, message):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["build", "{dir}"], id="input-is-a-directory"),
        pytest.param(["build", "{latin1}"], id="input-is-not-utf-8"),
        pytest.param(["verify", "thm-5.1", "--input", "{latin1}"], id="verify-input-is-not-utf-8"),
        pytest.param(["verify", "thm-3.1", "--k", "6", "--output", "{dir}"], id="output-is-a-directory"),
        pytest.param(["build", "{cycle}", "--dot", "{dir}"], id="dot-is-a-directory"),
        pytest.param(["build", "{cycle}", "--json", "{dir}"], id="json-is-a-directory"),
    ],
)
def test_a_path_that_cannot_be_read_or_written_is_a_usage_error(tmp_path, capsys, instance_file, argv):
    # Exit 1 means "not isomorphic" or "counterexample", so an unusable path
    # must exit 2 with a one-line error, not end in a traceback.
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("v caf\u00e9 2\n".encode("latin-1"))
    paths = {"dir": str(tmp_path), "latin1": str(latin1), "cycle": instance_file}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_thm_7_2_checks_its_search_cap_before_any_build(capsys, monkeypatch):
    from pebblab import theorems

    def refuse(*args, **kwargs):
        raise AssertionError("state graph built before the search cap was checked")

    monkeypatch.setattr(theorems, "build", refuse)
    assert main(["verify", "thm-7.2", "--n", "2", "--m", "1", "--search-cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "pebble cap must be non-negative, got -1" in captured.err


# A valid invocation of every claim form; forms that read the state budget
# must print a budget-exceeded report at --budget 1.
FORM_INVOCATIONS = [
    ["thm-3.1", "--k", "6", "--cap", "2"],
    ["cor-2.1", "--cap", "4"],
    ["thm-5.1", "--random-trees", "3", "--max-vertices", "6"],
    ["sec-6", "--vertex-cap", "2", "--pebble-cap", "2"],
    ["thm-7.1", "--sweep", "--max-factors", "1", "--max-length", "2"],
    ["thm-7.1", "--lengths", "2", "--path-pebbles", "2"],
    ["lem-7.1", "--sweep", "--max-k", "3"],
    ["lem-7.1", "--n", "3", "--k", "4"],
    ["lem-7.2", "--sweep", "--max-n", "3"],
    ["lem-7.2", "--n", "4", "--position", "1", "--heavy", "4", "--fill", "0"],
    ["cor-7.1", "--factor", "simple:n=2,src=2"],
    ["thm-7.2", "--n", "2", "--m", "1"],
]


def test_every_claim_that_reads_budget_reports_budget_exceeded(tmp_path, capsys, instance_file):
    from pebblab.cli import _parser, _verify_params
    from pebblab.theorems import CLAIM_IDS, CLAIMS, claim_form

    tree = tmp_path / "tree.txt"
    tree.write_text(TREE_SIMPLE)
    instances = [
        [claim, "--input", str(tree) if claim == "thm-5.1" else instance_file]
        for claim in CLAIM_IDS
        if CLAIMS[claim][-1].reads("input", str)
    ]
    forms = {}
    for argv in FORM_INVOCATIONS + instances:
        params = _verify_params(_parser().parse_args(["verify", *argv]))
        forms.setdefault(claim_form(argv[0], params), argv)
    assert set(forms) == {form for claim_forms in CLAIMS.values() for form in claim_forms}
    budgeted = [argv for form, argv in forms.items() if "state_budget" in form.keys]
    assert len(budgeted) == 11
    for argv in budgeted:
        assert main(["verify", *argv, "--budget", "1", "--format", "json"]) == 3, argv
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "budget-exceeded", argv
        assert payload["stats"]["state_budget"] == 1, argv


def test_every_claim_that_reads_search_budget_reports_it(capsys, instance_file):
    from pebblab.cli import _parser, _verify_params
    from pebblab.theorems import CLAIMS, replay, run_claim

    searched = [
        claim
        for claim, forms in CLAIMS.items()
        for form in forms
        if "search_budget" in form.keys
    ]
    assert searched == ["thm-7.2", "thm-8.1"]
    invocations = {"thm-7.2": ["--n", "2", "--m", "1"], "thm-8.1": ["--input", instance_file]}
    for claim in searched:
        argv = ["verify", claim, *invocations[claim], "--search-budget", "1", "--format", "json"]
        assert main(argv) == 3, claim
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "budget-exceeded", claim
        assert payload["stats"]["search_budget"] == 1, claim
        report, _ = run_claim(claim, _verify_params(_parser().parse_args(argv)))
        assert report.to_json_obj() == payload, claim
        assert replay(report, search_budget=1).to_json_obj() == payload, claim


def test_readme_claim_table_follows_the_registry():
    from pathlib import Path

    from pebblab import CLAIM_IDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Claim ids", 1)[1].split("\n#", 1)[0]
    ids = tuple(line.split("`")[1] for line in section.splitlines() if line.startswith("| `"))
    assert ids == CLAIM_IDS


# Commands whose stdout digests `.github/workflows/ci.yml` pins, run in
# process: the sweeps, thm-7.2's least-index hits (K(3,2) at the default
# budget exits 3), a tree batch, the cycle scans, the searches and the
# witnesses.  Each key names the command and its expected exit code.
CI_DIGESTS = [
    (["verify", "thm-7.1", "--sweep"], 0, "c24c8d63d7ee5ef084e7be5b51ceb2f754cf0cb9597109c43ce45e4d8d92d853"),
    (["verify", "lem-7.1", "--sweep"], 0, "5902ce115dfaa4ce2d137dd44a10d2b78c3d85e0298bbf746151a62792d6191d"),
    (["verify", "lem-7.2", "--sweep"], 0, "4eea2939cc60e2aec9cb2a40cac5ba6c162943bfd40c0e1ed6da870d40bd0d66"),
    (["verify", "thm-7.2", "--n", "2", "--m", "2"], 0, "dd00c3e25dc4e862260d71c23b701c8d369a6dc2d15be9ee7a657570ffba9241"),
    (["verify", "thm-7.2", "--n", "2", "--m", "3"], 0, "5e1a52037037cbb797a2262c5c9e490e1f6cea3812e3fee5c1418a0e6bf06a00"),
    (["verify", "thm-7.2", "--n", "3", "--m", "1"], 0, "ff47df189ad759809ce58ce42e36a1661b1ba42a3970bdb38d1bce15235987b8"),
    (["verify", "thm-7.2", "--n", "3", "--m", "2"], 3, "1940499dd086d76fd7d5a5039aae85ded4ab51348509aef55668b19b835b0a51"),
    (
        ["verify", "thm-5.1", "--random-trees", "300", "--max-vertices", "16", "--seed", "5"],
        0,
        "66ad8eeb65941e4537b22229a3476cbdc10096206670bcfc5b4a32ca1633302f",
    ),
    (["verify", "thm-3.1", "--k", "8", "--cap", "2"], 0, "1ca17e2696f32b2edfc25bb3371f6e83de6aefab44fa582ec57a74c8b1a6e60a"),
    (["verify", "thm-3.1", "--k", "20", "--cap", "6"], 0, "5e2364ab09361f05f15398788b37f685a63bb93505e0d40659a4f99e2c60cd6e"),
    (["search", "--max-vertices", "4", "--pebble-cap", "3"], 0, "b5f8db4dc33d0a4092ec9ba1e0cba07193ed8e366d5e71cbab5f6cfa53d941ea"),
    (
        ["search", "--max-vertices", "4", "--pebble-cap", "3", "--fully-traversable", "no"],
        0,
        "0e2e6071e94acba058e91ef204660ef21f15179bc7e30d53183d448b915c50c4",
    ),
    (["search", "--max-vertices", "5", "--pebble-cap", "2"], 0, "65030a47b1593c9e6b6c765352906004a946eeb84e500e6e45b857bd6ced7aad"),
    (
        ["verify", "thm-7.1", "--lengths", "3,3", "--path-pebbles", "2,3"],
        0,
        "c24b388f5f799af380f0a25504d79aa60b232249b1d83befcacf0224453931b0",
    ),
    (
        ["verify", "cor-7.1", "--factor", "simple:n=3,src=2", "--factor", "nearsink:n=3,k=4"],
        0,
        "0b8d99d7df2dcca69c02c9525e1b9ab5147d0451fad057ad46aa15842149fd5c",
    ),
]


@pytest.mark.parametrize("argv, code, digest", CI_DIGESTS, ids=[" ".join(argv) for argv, _, _ in CI_DIGESTS])
def test_ci_digests_in_process(capsys, argv, code, digest):
    assert main([*argv, "--format", "json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _verify_in_child(argv: list[str], limit: int, timeout: float) -> subprocess.CompletedProcess:
    """``pebblab verify`` in a child process under an address-space limit
    of ``limit`` bytes."""
    code = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from pebblab.cli import main
sys.exit(main({["verify", *argv]!r}))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(theorems.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=timeout, env=env)


def test_thm_7_2_memory_follows_its_builds_not_its_budget():
    # K(3,3)'s construction has 38 states.  Below an index budget of 10**14
    # its hit groups hold up to 2**25 vectors each; the least-index hit is
    # the least group base, so no group is listed.  A child process under a
    # 300 MB address-space limit and a 30 s timeout, so that listing the
    # groups fails here instead of filling memory.
    big = ["thm-7.2", "--n", "3", "--m", "3", "--search-budget", "100000000000000", "--format", "json"]
    out = _verify_in_child([*big, "--search-cap", "3"], 300 << 20, 30)
    assert out.returncode == 0, out.stderr[-2000:]
    digest = "a2623d1ba7bdae59558ffbd737d480b9f55f09a3a3a97f8511519dcb9d01a418"
    assert hashlib.sha256(out.stdout).hexdigest() == digest
    assert json.loads(out.stdout)["stats"]["assignments_scanned"] == 35184508403713

    out = _verify_in_child([*big, "--search-cap", "2"], 300 << 20, 30)
    assert out.returncode == 0, out.stderr[-2000:]
    report = json.loads(out.stdout)
    assert report["verdict"] == HOLDS
    assert report["stats"]["assignments_scanned"] == 62765425963
    g, a = parse_graph_text(report["instance_text"])
    assert len(g.vertices) == 38 and max(a.counts) <= 2
    assert state_graph_isomorphism(g, a) is not None


def test_tree_batch_reports_its_first_failing_instance_whole(monkeypatch):
    # prop-1.1 fails on the third tree: the batch stops there and hands over
    # prop-1.1's report under thm-5.1, with the tree's position in the batch.
    real, seen = theorems.verify_prop_1_1, []

    def fail_third(g, a, state_budget):
        seen.append(real(g, a, state_budget))
        if len(seen) < 3:
            return seen[-1]
        return replace(seen[-1], verdict=COUNTEREXAMPLE, stats=dict(seen[-1].stats))

    monkeypatch.setattr(theorems, "verify_prop_1_1", fail_third)
    report = verify_thm_5_1_batch(5, 8, seed=2)
    assert len(seen) == 3
    assert report.claim == "thm-5.1" and report.verdict == COUNTEREXAMPLE
    assert set(seen[2].stats) == {"states", "fully_traversable", "isomorphic"}
    assert report.stats == {**seen[2].stats, "batch_index": 2}
    assert report.instance_text == seen[2].instance_text
    monkeypatch.setattr(theorems, "verify_prop_1_1", real)
    # The replay runs thm-5.1's instance form on that tree, which holds.
    replayed = replay(report)
    assert replayed.verdict == HOLDS
    assert replayed.to_json_obj() == theorems._thm_5_1_on_instance(report.instance_text, DEFAULT_STATE_BUDGET).to_json_obj()


def test_tree_batch_out_of_budget_names_the_budget_and_the_tree(capsys):
    assert main(["verify", "thm-5.1", "--random-trees", "3", "--budget", "1", "--format", "json"]) == 3
    printed = json.loads(capsys.readouterr().out)
    assert printed["claim"] == "thm-5.1" and printed["verdict"] == "budget-exceeded"
    assert printed["stats"] == {"batch_index": 0, "state_budget": 1}
    # The CLI's defaults: 12 vertices at most, seed 0.
    report = verify_thm_5_1_batch(3, 12, 0, state_budget=1)
    assert report.to_json_obj() == printed
    replayed = replay(report, state_budget=1)
    assert replayed.to_json_obj() == {**printed, "stats": {"state_budget": 1}}

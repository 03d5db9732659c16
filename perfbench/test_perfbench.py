"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from child import timed, timed_calibrated  # noqa: E402
from oracles import naive_state_space  # noqa: E402
from pebblab import build, theorems  # noqa: E402
from reference import count_states_and_edges  # noqa: E402
from tracing import Tracer, closure_error, layer_metrics  # noqa: E402
from workloads import WORKLOADS, BigBuild  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in wanted:
        assert f"{m['name']} = " in proc.stdout
    assert "fail_share = 0.0" in proc.stdout
    if trace == "1":
        # On this commit the seed commit's call counts are met as well.
        assert "differs from the seed commit" not in proc.stdout
        assert "FAILED" not in proc.stdout


def test_tiny_trace_counts_match_their_definitions():
    search = WORKLOADS["search4"](0, "tiny")
    tracer = Tracer()
    with tracer:
        (result,), _ = timed(search)
    m = layer_metrics(tracer, 1.0, 1.0)
    assert m["canonical_form.calls"][0] == 1 + 3 + 27
    assert m["enumerate.candidates"][0] == 31 and m["enumerate.classes"][0] == 10
    assert m["scan.assignments"][0] == result.scanned == m["state_graph_isomorphism.calls"][0]
    assert closure_error(m, 1.0) < 1e-9


def test_calibrated_times_scale_every_slice_of_a_stretch_alike():
    class Quick:
        def slices(self):
            return [lambda i=i: i for i in range(5)]

    out, times, scaled = timed_calibrated(Quick())
    assert out == list(range(5)) and len(times) == len(scaled) == 5
    # Five no-op slices take far less than 50 ms, so one pair of
    # calibrations scales them all by the same factor.
    factors = [s / t for s, t in zip(scaled, times)]
    assert min(factors) > 0
    assert max(factors) - min(factors) <= 1e-9 * max(factors)


def test_tracer_unwinds_on_exceptions_and_restores_functions():
    original = theorems.build
    g, a = BigBuild(1, "tiny").draws[0]
    tracer = Tracer()
    with tracer:
        with pytest.raises(ValueError):
            theorems.build(g, a, state_budget=0)
        theorems.check_thm_2_1(g, a)
    assert theorems.build is original
    assert tracer.calls("build", parent="check_thm_2_1") == 1
    assert tracer.calls("build", parent=None) == 1
    assert tracer.counts["build.raised.ValueError"] == 1


def test_bigbuild_draws_agree_with_the_naive_oracle():
    """Small draws of the bigbuild generator: build, the benchmark's own
    reference counter and the memo-free oracle give the same state graph."""
    checked = 0
    for seed in range(3):
        for g, a in BigBuild(seed, "tiny").draws:
            counted = count_states_and_edges(g, a.counts, cap=40)
            if counted is None:
                continue
            states, transitions = naive_state_space(g, a.counts)
            ag = build(g, a)
            assert set(ag.states) == states
            assert len(ag.edges) == len(transitions)
            assert counted == (len(states), len(transitions))
            report = theorems.check_thm_2_1(g, a)
            assert report.verdict == theorems.HOLDS
            assert (report.stats["states"], report.stats["edges"]) == counted
            checked += 1
    assert checked >= 250


def test_reference_counter_cap():
    for graph, assignment in BigBuild(1, "tiny").draws:
        full = count_states_and_edges(graph, assignment.counts, cap=5000)
        if full is not None and full[0] >= 100:
            break
    assert count_states_and_edges(graph, assignment.counts, cap=full[0]) == full
    assert count_states_and_edges(graph, assignment.counts, cap=full[0] - 1) is None


def test_bigbuild_inputs_depend_only_on_the_seed():
    one, two, other = BigBuild(5, "tiny"), BigBuild(5, "tiny"), BigBuild(6, "tiny")
    counts = lambda w: [(g.edges, a.counts) for g, a in w.draws]  # noqa: E731
    assert counts(one) == counts(two) != counts(other)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "trees", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_bigbuild_gate_uses_the_recorded_digest():
    workload = BigBuild(4, "tiny")
    workload.prepare()
    out, _ = timed(workload)
    checked = workload.check(out)
    assert checked["failed"] == 0 and checked["info"]["digest_recorded"]
    workload.expected = {"digests": {"4": "0" * 64}}
    assert workload.check(out)["failed"] == len(out)

"""Benchmark for pebblab: one workload (or all) per invocation.

    python3 perfbench/run.py --workload bigbuild --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; pebblab is imported from its ``src``.
Every measured run is one fresh single-threaded interpreter (``child.py``),
started one at a time.  Set-up time is the median over several children
that only start, import pebblab and make the inputs.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced unit.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passed,
1 when a check failed (the JSON line is still printed) and 2 when the run
could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from child import NOMINAL_CALIBRATION_S  # noqa: E402

SETUP_SAMPLES = 11  # the measured child's own set-up is one of them
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("bigbuild", "search4", "scan", "trees")


class RunError(Exception):
    pass


def _child_cmd(args, workload: str, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(args.seed), "--size", args.size]
    if setup_only:
        return cmd + ["--setup-only"]
    return cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)]


def _run_child(cmd: list[str], deadline: float) -> tuple[float, str]:
    """(set-up seconds at nominal speed, stdout after the calibration line)
    of one child."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    lines = out.split("\n", 2) + ["", ""]
    ready, calibration = lines[0].partition(" "), lines[1].partition(" ")
    if ready[0] != "ready" or calibration[0] != "calibration":
        raise RunError(f"no ready and calibration lines from {' '.join(cmd)}")
    return (float(ready[2]) - start) * NOMINAL_CALIBRATION_S / float(calibration[2]), lines[2]


def run_workload(args, workload: str, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_run_child(_child_cmd(args, workload, True), deadline)[0])
    setup, rest = _run_child(_child_cmd(args, workload, False), deadline)
    setups.append(setup)
    raw = json.loads(rest.strip().splitlines()[-1])
    checks = raw["checks"]
    problems = [p for c in checks for p in c["problems"]] + raw.get("trace_problems", [])
    result = {
        "attempted": sum(c["attempted"] for c in checks),
        "failed": sum(c["failed"] for c in checks),
        "problems": problems,
        "info": dict(checks[-1]["info"], unit_walls=raw["walls"]),
    }
    if args.trace:
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in raw["layers"].items()}
        result["coverage"] = raw["coverage"]
    else:
        wall = raw["wall"]
        result["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            "ops_per_s": {"value": checks[-1]["ops"] / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": raw["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    result["correct"] = not problems and result["failed"] == 0
    return result


def report(workload: str, result: dict) -> None:
    print(f"[{workload}] info={json.dumps(result['info'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"[{workload}] {name} = {m['value']!r} {m['unit']}")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"[{workload}] fail_share = {share!r} ({result['failed']} failed / {result['attempted']} attempted)")
    for what, got, want, gating in result.get("coverage", []):
        verdict = "ok" if got == want else ("FAILED" if gating else "differs from the seed commit")
        print(f"[{workload}] coverage {what}: {got} vs {want}: {verdict}")
    for p in result["problems"][:20]:
        print(f"[{workload}] PROBLEM {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the same workloads at a size for self-tests")
    args = p.parse_args(argv)
    # A terminated run unwinds through _run_child, which stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "pebblab" / "__init__.py").is_file():
        print(f"no pebblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    print(f"machine: {os.cpu_count()} CPUs, Python {platform.python_version()}, {platform.machine()}")
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name, time.monotonic() + DEADLINE_S)
            report(name, results[name])
    except (RunError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run in a fresh interpreter, started by ``run.py``.

Imports pebblab from the checkout's ``src``, makes the workload's inputs,
prints ``ready <CLOCK_MONOTONIC seconds>`` and ``calibration <seconds>``
and then, unless ``--setup-only``, measures units of work and prints its
raw measurements as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_UNITS = 2
CALIBRATE_EVERY_S = 0.05
# What calibration_loop takes at the speed wall_s is reported at: about its
# median on the 2-vCPU VM the baseline was measured on.
NOMINAL_CALIBRATION_S = 0.002
# Calibrations right after set-up; their median scales set-up time.
SETUP_CALIBRATIONS = 5


def timed(workload) -> tuple[list, list[float]]:
    """Run one unit; its slices' results and their wall times."""
    out, times = [], []
    for piece in workload.slices():
        t0 = time.perf_counter()
        out.append(piece())
        times.append(time.perf_counter() - t0)
    return out, times


def calibration_loop() -> int:
    """Fixed interpreter work of about 2 ms on an idle 2-vCPU VM: tuples,
    a set and a dict, like the state-graph code it stands beside."""
    seen: set = set()
    index: dict = {}
    for i in range(3000):
        key = (i % 17, i % 5, i >> 3)
        if key not in seen:
            seen.add(key)
            index[key] = len(index)
    return len(index)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0


def timed_calibrated(workload) -> tuple[list, list[float], list[float]]:
    """Run one unit with the calibration loop before it and after every
    ``CALIBRATE_EVERY_S`` of slices.  Returns the slices' results, their
    wall times, and their wall times at nominal speed: each divided by the
    mean of the two calibrations around it and multiplied by
    ``NOMINAL_CALIBRATION_S``."""
    out, times, scaled, pending = [], [], [], []
    before = calibrate()
    since = 0.0
    pieces = workload.slices()
    for n, piece in enumerate(pieces, 1):
        t0 = time.perf_counter()
        out.append(piece())
        dt = time.perf_counter() - t0
        times.append(dt)
        pending.append(dt)
        since += dt
        if since >= CALIBRATE_EVERY_S or n == len(pieces):
            after = calibrate()
            factor = 2 * NOMINAL_CALIBRATION_S / (before + after)
            scaled += [t * factor for t in pending]
            before, since, pending = after, 0.0, []
    return out, times, scaled


def measure(workload, seconds: float) -> dict:
    """At least ``MIN_UNITS`` units back to back, more while another one
    still fits in ``seconds``.  ``wall_s`` sums, over slices, each slice's
    median time at nominal speed over the units.

    The host is a shared VM whose speed drifts by up to 1.6x in phases that
    can outlast a run, so raw times spread with the phase a run lands in.
    The calibration loop runs next to each stretch of slices in the same
    process and slows down with them, so the ratio tracks the program's own
    cost."""
    walls, checks, per_slice = [], [], []
    start = time.perf_counter()
    while True:
        out, times, scaled = timed_calibrated(workload)
        walls.append(sum(times))
        per_slice = per_slice or [[] for _ in scaled]
        for samples, t in zip(per_slice, scaled):
            samples.append(t)
        checks.append(workload.check(out))
        if len(walls) >= MIN_UNITS and time.perf_counter() - start + walls[-1] > seconds:
            break
    wall = sum(statistics.median(v) for v in per_slice)
    return {"walls": walls, "wall": wall, "checks": checks}


def measure_traced(workload) -> dict:
    """One untraced unit, then one traced unit for the per-layer numbers."""
    from tracing import Tracer, closure_error, layer_metrics

    out, times = timed(workload)
    untraced = sum(times)
    checks = [workload.check(out)]
    tracer = Tracer()
    with tracer:
        out, times = timed(workload)
    traced = sum(times)
    checks.append(workload.check(out))
    metrics = layer_metrics(tracer, traced, untraced)
    coverage = workload.coverage(tracer, out)
    problems = [
        f"coverage: {what}: traced {got}, expected {want}"
        for what, got, want, gating in coverage
        if gating and got != want
    ]
    error = closure_error(metrics, traced)
    if error > 1e-6 * traced:
        problems.append(f"closure: layer self times + unattributed_s miss the traced wall by {error} s")
    return {
        "walls": [untraced],
        "checks": checks,
        "layers": metrics,
        "coverage": [list(c) for c in coverage],
        "trace_problems": problems,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import pebblab

    if Path(pebblab.__file__).resolve().parent != SRC / "pebblab":
        print(f"pebblab imported from {pebblab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size)
    print(f"ready {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
    calibration = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    print(f"calibration {calibration!r}", flush=True)
    if args.setup_only:
        return 0
    workload.prepare()
    result = measure_traced(workload) if args.trace else measure(workload, args.seconds)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

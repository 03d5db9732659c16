"""What the benchmark in ``perfbench/`` needs from the library.

Its tracer patches each ``(module, attribute)`` call site named in
``perfbench/tracing.py``'s ``SPANS``, and its traced run exits 1 when a
check or a gating coverage line fails.  Either breaks a benchmark run of a
change that renames or stops importing one of those names, so both are
checked here, without editing the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPANS


def test_every_traced_call_site_resolves_to_a_callable():
    sites = [site for _, listed in _spans().values() for site in listed]
    assert sites
    for module_name, attr in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_tiny_traced_benchmark_run_exits_zero():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", "1", "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]

"""In-memory span tracing of pebblab's public functions, from outside.

Functions are wrapped where they are *called*: ``pebblab.classify`` does
``from .assignment_graph import build``, so the name to patch is
``pebblab.classify.build``, not ``pebblab.assignment_graph.build``.  Each
wrapper records a span (name, parent span name, inclusive time, time of its
child spans) and, for some functions, counts read off the result.  Spans are
aggregated by (name, parent) while the run goes and read out at the end.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# Span name -> (layer, [(module, attribute), ...] where it is called from).
SPANS: dict[str, tuple[str, list[tuple[str, str]]]] = {
    "build": (
        "assignment_graph",
        [("pebblab.classify", "build"), ("pebblab.theorems", "build")],
    ),
    "search_isomorphic_pairs": ("classify", [("pebblab.classify", "search_isomorphic_pairs")]),
    "scan": (
        "classify",
        [
            ("pebblab.classify", "scan_graph_assignments"),
            ("pebblab.theorems", "scan_graph_assignments"),
        ],
    ),
    "state_graph_isomorphism": (
        "classify",
        [
            ("pebblab.classify", "state_graph_isomorphism"),
            ("pebblab.theorems", "state_graph_isomorphism"),
        ],
    ),
    "enumerate": ("generate", [("pebblab.classify", "enumerate_oriented_graphs")]),
    "canonical_form": ("iso", [("pebblab.generate", "canonical_form")]),
    "digraph_isomorphic": (
        "iso",
        [("pebblab.classify", "digraph_isomorphic"), ("pebblab.theorems", "digraph_isomorphic")],
    ),
    "automorphisms": ("iso", [("pebblab.classify", "automorphisms")]),
    "check_thm_2_1": ("theorems", [("pebblab.theorems", "check_thm_2_1")]),
    "verify_thm_3_1": ("theorems", [("pebblab.theorems", "verify_thm_3_1")]),
    "verify_thm_5_1": ("theorems", [("pebblab.theorems", "verify_thm_5_1")]),
    "verify_prop_1_1": ("theorems", [("pebblab.theorems", "verify_prop_1_1")]),
}

LAYERS = ("assignment_graph", "classify", "generate", "iso", "theorems")


def _count_result(counts: Counter, name: str, result) -> None:
    if name == "build":
        counts["build.states"] += len(result.states)
        counts["build.edges"] += len(result.edges)
    elif name == "scan":
        counts["scan.assignments"] += result[1]
    elif name == "state_graph_isomorphism":
        counts["state_graph_isomorphism.hits"] += result is not None
    elif name == "enumerate":
        counts["enumerate.classes"] += len(result)
    elif name == "digraph_isomorphic":
        counts["digraph_isomorphic.found"] += result is not None


class Tracer:
    """Span aggregates keyed by (name, parent name); ``None`` is the root.

    Each aggregate is [calls, inclusive seconds, seconds in child spans].
    Not thread-safe: the benchmark runs pebblab on one thread.
    """

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, seconds in children]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack, spans, counts = self._stack, self.spans, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += frame[1]
                if stack:
                    stack[-1][1] += dt
            _count_result(counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        """Patch every call site in ``SPANS``; ``__exit__`` restores them."""
        for name, (_, sites) in SPANS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- read-out ------------------------------------------------------------

    def calls(self, name: str, parent: str | None = "*") -> int:
        return sum(a[0] for (n, p), a in self.spans.items() if n == name and parent in ("*", p))

    def total_s(self, name: str) -> float:
        return sum(a[1] for (n, _), a in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(a[1] - a[2] for (n, _), a in self.spans.items() if n == name)

    def root_s(self) -> float:
        return sum(a[1] for (_, p), a in self.spans.items() if p is None)

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(name) for name, (lay, _) in SPANS.items() if lay == layer)


def _ratio(n: float, base: float) -> float:
    return n / base if base > 0 else 0.0


def layer_metrics(tr: Tracer, wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced unit: name -> (value, unit).  Every
    ratio is reported next to the counts it is made of."""
    c = tr.counts
    m: dict[str, tuple[float, str]] = {}
    build_s = tr.total_s("build")
    m["build.calls"] = (tr.calls("build"), "count")
    m["build.s"] = (build_s, "s")
    m["build.states"] = (c["build.states"], "count")
    m["build.edges"] = (c["build.edges"], "count")
    m["build.states_per_s"] = (_ratio(c["build.states"], build_s), "1/s")
    m["build.edges_per_s"] = (_ratio(c["build.edges"], build_s), "1/s")
    m["build.budget_hits"] = (c["build.raised.StateBudgetExceededError"], "count")
    for name in ("check_thm_2_1", "verify_thm_5_1", "verify_prop_1_1"):
        m[f"{name}.self_s"] = (tr.self_s(name), "s")
    candidates = tr.calls("canonical_form", parent="enumerate")
    m["enumerate.s"] = (tr.total_s("enumerate"), "s")
    m["enumerate.candidates"] = (candidates, "count")
    m["enumerate.classes"] = (c["enumerate.classes"], "count")
    m["enumerate.useful_share"] = (_ratio(c["enumerate.classes"], candidates), "ratio")
    for name in ("canonical_form", "digraph_isomorphic", "automorphisms"):
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.s"] = (tr.total_s(name), "s")
    for name in ("canonical_form", "digraph_isomorphic"):
        m[f"{name}.calls_per_s"] = (_ratio(tr.calls(name), tr.total_s(name)), "1/s")
    m["digraph_isomorphic.found"] = (c["digraph_isomorphic.found"], "count")
    m["digraph_isomorphic.found_share"] = (
        _ratio(c["digraph_isomorphic.found"], tr.calls("digraph_isomorphic")),
        "ratio",
    )
    assignments = c["scan.assignments"]
    builds = tr.calls("build", parent="state_graph_isomorphism")
    m["scan.assignments"] = (assignments, "count")
    m["scan.self_s"] = (tr.self_s("scan"), "s")
    m["scan.assignments_per_s"] = (_ratio(assignments, tr.total_s("scan")), "1/s")
    m["scan.builds"] = (builds, "count")
    m["scan.built_share"] = (_ratio(builds, assignments), "ratio")
    m["state_graph_isomorphism.calls"] = (tr.calls("state_graph_isomorphism"), "count")
    m["state_graph_isomorphism.self_s"] = (tr.self_s("state_graph_isomorphism"), "s")
    m["state_graph_isomorphism.hits"] = (c["state_graph_isomorphism.hits"], "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    m["unattributed_s"] = (wall - tr.root_s(), "s")
    m["traced_wall_s"] = (wall, "s")
    m["untraced_wall_s"] = (untraced_wall, "s")
    m["trace_overhead"] = (_ratio(wall, untraced_wall), "ratio")
    return m


def closure_error(metrics: dict[str, tuple[float, str]], wall: float) -> float:
    """How far the layer self times plus ``unattributed_s`` are from the
    traced wall time; zero up to rounding when every span nests properly."""
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) + metrics["unattributed_s"][0]
    return abs(total - wall)

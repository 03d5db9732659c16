"""The benchmark's workloads.

Each workload makes its inputs from the seed when it is constructed (this
counts as set-up).  A unit of work is a list of *slices*, each a call into
the public functions the CLI uses, timed one by one; ``check`` checks the
list of their results.  Functions are looked up on their modules when a
slice runs, so a ``Tracer`` that patches them sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from pebblab import classify, generate, pebbling, theorems

from reference import count_states_and_edges

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# Oriented graphs on n = 1, 2, ... vertices up to isomorphism (OEIS A001174).
A001174 = (1, 2, 7, 42, 582, 21480)

SIZES = {
    "bigbuild": {
        "full": {"state_budget": 30_000, "target_states": 1_500_000, "draws": 800},
        "tiny": {"state_budget": 1_000, "target_states": 6_000, "draws": 400},
    },
    "search4": {
        "full": {"searches": [[4, 1], [4, 2], [4, 3]]},
        "tiny": {"searches": [[3, 3]]},
    },
    "scan": {
        "full": {
            "cycles": [[6, 2], [6, 4], [6, 5], [8, 1], [8, 2], [10, 1], [12, 1], [14, 1]],
            "searches": [[3, 10], [3, 20]],
        },
        "tiny": {"cycles": [[6, 2], [8, 1]], "searches": [[3, 4]]},
    },
    "trees": {
        "full": {"trees": 2000, "max_vertices": 24, "leaf_cap": 9},
        "tiny": {"trees": 20, "max_vertices": 24, "leaf_cap": 9},
    },
}


def search_json_digest(result) -> str:
    """SHA-256 of the text ``pebblab search --format json`` prints."""
    text = json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.params = SIZES[self.name][size]

    def prepare(self) -> None:
        """Work done once after set-up and before timing; none by default."""

    def slices(self) -> list:
        """Zero-argument callables making up one unit, in order."""
        raise NotImplementedError

    def check(self, out) -> dict:
        """{"ops", "attempted", "failed", "problems", "info"} for one unit."""
        raise NotImplementedError

    def coverage(self, tracer, out) -> list[tuple[str, int, int, bool]]:
        """(what, traced, expected, gating) pairs for a traced unit.  A
        gating pair must hold for any correct program; the others pin the
        seed commit's algorithms and are reported, not enforced."""
        return []


class BigBuild(Workload):
    """Criterion-3 style 8-vertex draws through ``check_thm_2_1`` under a
    fixed state budget, taken in seed order until a fixed load is reached."""

    name = "bigbuild"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        self.expected = EXPECTED["bigbuild"][size]
        rng = random.Random(seed)
        self.draws = []
        for _ in range(self.params["draws"]):
            g = generate.random_oriented_graph(rng, 8, rng.uniform(0.3, 0.6))
            self.draws.append((g, generate.random_assignment(rng, g, 6)))
        self.unit = None
        self.truth = None

    def prepare(self):
        """Fix the unit from the reference counts, so that it does not
        depend on the program under test: draws in seed order until the
        states built, min(states, budget) per draw, reach the target."""
        budget, target = self.params["state_budget"], self.params["target_states"]
        self.truth = []
        load = 0
        for g, a in self.draws:
            counted = count_states_and_edges(g, a.counts, cap=budget)
            self.truth.append(counted)
            load += budget if counted is None else counted[0]
            if load >= target:
                break
        else:
            raise RuntimeError(f"{len(self.draws)} draws hold less than {target} states")
        self.unit = self.draws[: len(self.truth)]

    def slices(self):
        budget = self.params["state_budget"]
        return [lambda g=g, a=a: theorems.check_thm_2_1(g, a, budget) for g, a in self.unit]

    def check(self, out):
        budget = self.params["state_budget"]
        failed, problems, lines, states = 0, [], [], 0
        for i, (report, truth) in enumerate(zip(out, self.truth)):
            if truth is None:
                ok = report.verdict == theorems.BUDGET_EXCEEDED
                lines.append("over-budget")
                states += budget
            else:
                got = (report.stats.get("states"), report.stats.get("edges"))
                ok = report.verdict == theorems.HOLDS and got == truth
                lines.append(f"{truth[0]} {truth[1]}")
                states += truth[0]
            if not ok:
                failed += 1
                problems.append(f"draw {i}: {report.verdict} {report.stats} vs reference {truth}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        recorded = self.expected["digests"].get(str(self.seed))
        if recorded is not None and digest != recorded:
            failed = len(out)
            problems.append(f"digest {digest} differs from the recorded {recorded}")
        info = {
            "instances": len(out),
            "over_budget": sum(t is None for t in self.truth),
            "states": states,
            "digest": digest,
            "digest_recorded": recorded is not None,
        }
        return {"ops": states, "attempted": len(out), "failed": failed, "problems": problems, "info": info}

    def coverage(self, tracer, out):
        n = len(out)
        completed = [t for t in self.truth if t is not None]
        return [
            ("check_thm_2_1.calls == instances", tracer.calls("check_thm_2_1"), n, True),
            ("build.calls == instances", tracer.calls("build"), n, False),
            (
                "build.states == reference states of completed draws",
                tracer.counts["build.states"],
                sum(t[0] for t in completed),
                False,
            ),
        ]


def check_searches(searches, results) -> tuple[int, list[str]]:
    """(failed assignments, problems) of ``search_isomorphic_pairs(v, cap)``
    results against the seed commit's record for each (v, cap).  A search
    with any problem fails every assignment it scanned."""
    failed, problems = 0, []
    for (v, cap), result in zip(searches, results):
        want = EXPECTED["searches"][f"{v},{cap}"]
        observed = {
            "graph_classes": (result.stats.get("graph_classes"), sum(A001174[:v])),
            "pairs": (len(result.pairs), want["pairs"]),
            "scanned": (result.scanned, want["scanned"]),
            "digest": (search_json_digest(result), want["digest"]),
        }
        found = [f"search({v}, {cap}) {k}: {got} != {exp}" for k, (got, exp) in observed.items() if got != exp]
        if found:
            failed += result.scanned
            problems += found
    return failed, problems


def search_slices(searches) -> list:
    return [lambda v=v, cap=cap: classify.search_isomorphic_pairs(v, cap) for v, cap in searches]


class Search4(Workload):
    """``search_isomorphic_pairs(4, cap)`` for caps 1 to 3: what ``pebblab
    search --max-vertices 4 --pebble-cap CAP`` runs.  Enumerating the
    oriented graphs on up to four vertices is most of each call.  The inputs
    do not depend on the seed."""

    name = "search4"

    def slices(self):
        return search_slices(self.params["searches"])

    def check(self, out):
        failed, problems = check_searches(self.params["searches"], out)
        scanned = sum(r.scanned for r in out)
        info = {
            "graph_classes": [r.stats.get("graph_classes") for r in out],
            "pairs": [len(r.pairs) for r in out],
            "scanned": [r.scanned for r in out],
        }
        return {"ops": scanned, "attempted": scanned, "failed": failed, "problems": problems, "info": info}

    def coverage(self, tracer, out):
        sweep = sum(3 ** (n * (n - 1) // 2) for v, _ in self.params["searches"] for n in range(1, v + 1))
        return [
            ("scan.assignments == scanned", tracer.counts["scan.assignments"], sum(r.scanned for r in out), True),
            (
                "enumerate.classes == graph classes",
                tracer.counts["enumerate.classes"],
                sum(r.stats.get("graph_classes", 0) for r in out),
                True,
            ),
            ("canonical_form.calls == orientation sweeps", tracer.calls("canonical_form"), sweep, False),
            (
                "state_graph_isomorphism.calls == scan.assignments",
                tracer.calls("state_graph_isomorphism"),
                tracer.counts["scan.assignments"],
                False,
            ),
        ]


class Scan(Workload):
    """Exhaustive assignment scans with little enumeration: thm-3.1 on
    downward cycles of length 6 to 14 and ``search_isomorphic_pairs(3, cap)``
    for two caps.  Each call is short, so a run repeats it many times.  The
    inputs do not depend on the seed."""

    name = "scan"

    def slices(self):
        cycles = [lambda k=k, cap=cap: theorems.verify_thm_3_1(k, cap) for k, cap in self.params["cycles"]]
        return cycles + search_slices(self.params["searches"])

    def check(self, out):
        n = len(self.params["cycles"])
        cycles, searches = out[:n], out[n:]
        failed, problems = check_searches(self.params["searches"], searches)
        for (k, cap), report in zip(self.params["cycles"], cycles):
            want = (cap + 1) ** (k - 1)
            stats = report.stats
            if report.verdict != theorems.HOLDS or stats["isomorphic_found"] != 0 or stats["scanned"] != want:
                failed += stats["scanned"]
                problems.append(f"thm-3.1 k={k} cap={cap}: {report.verdict} {stats}, want {want} scanned")
        scanned = [r.stats["scanned"] for r in cycles] + [r.scanned for r in searches]
        return {"ops": sum(scanned), "attempted": sum(scanned), "failed": failed, "problems": problems,
                "info": {"scanned": scanned}}

    def coverage(self, tracer, out):
        n = len(self.params["cycles"])
        scanned = sum(r.stats["scanned"] for r in out[:n]) + sum(r.scanned for r in out[n:])
        return [
            ("scan.assignments == scanned", tracer.counts["scan.assignments"], scanned, True),
            (
                "state_graph_isomorphism.calls == scan.assignments",
                tracer.calls("state_graph_isomorphism"),
                tracer.counts["scan.assignments"],
                False,
            ),
        ]


class Trees(Workload):
    """Seeded random downward trees through ``verify_thm_5_1`` and
    ``verify_prop_1_1``, as the thm-5.1 batch checks each tree."""

    name = "trees"

    def __init__(self, seed, size):
        super().__init__(seed, size)
        rng = random.Random(seed)
        self.trees = []
        for _ in range(self.params["trees"]):
            tree = generate.random_downward_tree(rng, rng.randint(2, self.params["max_vertices"]))
            root_pebbles = rng.choice((2, 3))
            leaves = {v: rng.randint(0, self.params["leaf_cap"]) for v in tree.sinks()}
            self.trees.append((tree, root_pebbles, leaves))

    def slices(self):
        return [lambda t=t: self._check_tree(*t) for t in self.trees]

    @staticmethod
    def _check_tree(tree, root_pebbles, leaves):
        iso = theorems.verify_thm_5_1(tree, root_pebbles, leaves)
        a = pebbling.tree_assignment(tree, root_pebbles, leaves)
        return iso.verdict, theorems.verify_prop_1_1(tree, a).verdict

    def check(self, out):
        bad = [i for i, verdicts in enumerate(out) if verdicts != (theorems.HOLDS, theorems.HOLDS)]
        problems = [f"tree {i}: verdicts {out[i]}" for i in bad]
        return {"ops": len(out), "attempted": len(out), "failed": len(bad), "problems": problems, "info": {"trees": len(out)}}

    def coverage(self, tracer, out):
        n = len(out)
        return [
            ("verify_thm_5_1.calls == trees", tracer.calls("verify_thm_5_1"), n, True),
            ("build.calls == 2 * trees", tracer.calls("build"), 2 * n, False),
        ]


WORKLOADS = {w.name: w for w in (BigBuild, Search4, Scan, Trees)}

"""Command-line front end.

Subcommands: ``build`` (state graph of an instance file), ``iso``
(directed/undirected isomorphism of two graph files), ``verify`` (run one
claim checker by id), and ``search`` (scan small graphs and assignments for
pairs isomorphic to their state graph).

Exit codes: 0 for success / holds / hypothesis-not-met, 1 for not
isomorphic or counterexample, 2 for parse and usage errors and paths that
cannot be read or written, 3 for exceeded budgets.  All stdout output is
byte-stable given the same inputs, flags, and seed; timings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .assignment_graph import DEFAULT_STATE_BUDGET, build
from .classify import search_isomorphic_pairs
from .errors import BudgetExceededError, PebblabError, UnknownClaimError
from .iso import digraph_isomorphic, undirected_isomorphic
from .textio import format_assignment, parse_graph_text
from .theorems import (
    BUDGET_EXCEEDED,
    COUNTEREXAMPLE,
    HOLDS,
    HYPOTHESIS_NOT_MET,
    claim_form,
    run_claim,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3

_VERDICT_EXIT = {
    HOLDS: EXIT_OK,
    HYPOTHESIS_NOT_MET: EXIT_OK,
    COUNTEREXAMPLE: EXIT_NEGATIVE,
    BUDGET_EXCEEDED: EXIT_BUDGET,
}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def positive_int(text: str) -> int:
    """An integer of at least 1, for the budget flags."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def cmd_build(args) -> int:
    g, a = _read_instance(args.input)
    ag = build(g, a, args.budget)
    ft = ag.is_fully_traversable()
    print(f"{len(ag.packed)} states, {len(ag.labels)} edges, "
          f"fully traversable: {'true' if ft else 'false'}")
    print("traversal counts:")
    for (u, w), c in ag.traversal_counts().items():
        print(f"  {u}->{w}: {c}")
    if args.dot:
        _write_output(ag.to_dot(), args.dot)
    if args.json:
        _write_output(_json_text(ag.to_json_obj()), args.json)
    return EXIT_OK


def cmd_iso(args) -> int:
    g, _ = _read_instance(args.left)
    h, _ = _read_instance(args.right)
    check = digraph_isomorphic if args.mode == "directed" else undirected_isomorphic
    witness = check(g, h)
    if witness is None:
        print("not isomorphic", file=sys.stderr)
        return EXIT_NEGATIVE
    _write_output(_json_text(witness.to_json_obj()), args.output)
    return EXIT_OK


def integer_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


# Every `verify` flag: flag -> (parameter key, value type, argparse keywords).
# `--format` and `--output` (key None) are global.  Each other flag defaults
# to None and is passed on only when given, so the claims' own defaults
# apply; a flag whose key the claim does not read, as that type, is an error.
_VERIFY_FLAGS = {
    "--input": ("input", str, {"help": "instance file for per-instance claims"}),
    "--cap": ("cap", int, {"type": int, "help": "pebble cap for scans"}),
    "--k": ("k", int, {"type": int, "help": "cycle length (thm-3.1)"}),
    "--n": ("n", int, {"type": int}),
    "--m": ("m", int, {"type": int}),
    "--position": ("position", int, {"type": int}),
    "--heavy": ("heavy", int, {"type": int}),
    "--fill": ("fill", int, {"type": int}),
    "--sink": ("sink", int, {"type": int}),
    "--pebbles": ("pebbles", int, {"type": int}),
    "--search-cap": ("search_cap", int, {"type": int}),
    "--vertex-cap": ("vertex_cap", int, {"type": int}),
    "--pebble-cap": ("pebble_cap", int, {"type": int}),
    "--sweep": (
        "sweep", bool, {"action": "store_true", "default": None, "help": "run the full instance sweep"}
    ),
    "--max-factors": ("max_factors", int, {"type": int}),
    "--max-length": ("max_length", int, {"type": int}),
    "--max-k": ("max_k", int, {"type": int}),
    "--max-n": ("max_n", int, {"type": int}),
    "--lengths": (
        "lengths", list, {"type": integer_list, "help": "comma-separated path lengths (thm-7.1)"}
    ),
    "--path-pebbles": (
        "pebbles", list, {"type": integer_list, "help": "comma-separated source counts (thm-7.1)"}
    ),
    "--sinks": (
        "sinks", list, {"type": integer_list, "help": "comma-separated sink counts (thm-7.1)"}
    ),
    "--factor": (
        "factors",
        list,
        {"action": "append", "help": "pebbled path spec like simple:n=3,src=2 (repeatable, cor-7.1)"},
    ),
    "--random-trees": ("random_trees", int, {"type": int}),
    "--max-vertices": ("max_vertices", int, {"type": int}),
    "--seed": ("seed", int, {"type": int}),
    "--budget": ("state_budget", int, {"type": positive_int, "help": "state budget"}),
    "--search-budget": ("search_budget", int, {"type": positive_int}),
    "--format": (None, None, {"choices": ("json", "table"), "default": "table"}),
    "--output": (None, None, {"help": "write the report here instead of stdout"}),
    "--emit-graph": ("emit_graph", str, {"help": "write a constructed host graph here (thm-8.1)"}),
}


def _verify_params(args) -> dict:
    """The parameters set by the `verify` flags given, checked against the
    claim form they select: the form must read every flag given, as that
    flag's type, and every key it needs must be given."""
    given = {}
    for flag, (key, _, _) in _VERIFY_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if key is not None and value is not None:
            given[flag] = value
    params = {_VERIFY_FLAGS[flag][0]: value for flag, value in given.items()}
    form = claim_form(args.claim, params)
    accepted = [
        flag
        for flag, (key, kind, _) in _VERIFY_FLAGS.items()
        if (form.host if key == "emit_graph" else form.reads(key, kind))
    ]
    unread = [flag for flag in given if flag not in accepted]
    if unread:
        raise UnknownClaimError(
            f"{args.claim} does not read {', '.join(unread)}; "
            f"it accepts {', '.join(accepted)}, --format and --output"
        )
    missing = [f for f in accepted if _VERIFY_FLAGS[f][0] in form.required and f not in given]
    if missing:
        raise UnknownClaimError(f"{args.claim} needs {', '.join(missing)}")
    params.pop("emit_graph", None)
    if "input" in params:
        with open(params["input"], encoding="utf-8") as fh:
            params["input"] = fh.read()
    return params


def cmd_verify(args) -> int:
    started = time.monotonic()
    report, extra = run_claim(args.claim, _verify_params(args))
    elapsed = time.monotonic() - started

    if args.format == "json":
        obj = report.to_json_obj()
        if extra is not None and hasattr(extra, "to_json_obj"):
            obj["classification"] = extra.to_json_obj()
        text = _json_text(obj)
    else:
        text = report.table()
        if extra is not None and hasattr(extra, "table"):
            text += extra.table()
    _write_output(text, args.output)
    if args.emit_graph and extra is not None:
        _, host_assignment = extra
        _write_output(format_assignment(host_assignment), args.emit_graph)
    print(f"{args.claim}: {report.verdict} in {elapsed:.2f}s", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]


def cmd_search(args) -> int:
    ft_filter = {"yes": True, "no": False, "any": None}[args.fully_traversable]
    started = time.monotonic()
    result = search_isomorphic_pairs(args.max_vertices, args.pebble_cap, ft_filter=ft_filter)
    elapsed = time.monotonic() - started
    if args.format == "json":
        text = _json_text(result.to_json_obj())
    else:
        text = result.table()
    _write_output(text, args.output)
    print(
        f"search: {len(result.pairs)} pairs, {result.scanned} assignments scanned"
        f" over {result.stats['graph_classes']} classes in {elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebblab",
        description="Oriented-graph pebbling: state graphs, isomorphism, verification, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the state graph of an instance file")
    p_build.add_argument("input", help="graph + assignment in the text format")
    p_build.add_argument("--dot", help="write the state graph as DOT to this path")
    p_build.add_argument("--json", help="write the state graph as JSON to this path")
    p_build.add_argument("--budget", type=positive_int, default=DEFAULT_STATE_BUDGET, help="state budget")
    p_build.set_defaults(fn=cmd_build)

    p_iso = sub.add_parser("iso", help="decide isomorphism of two graph files")
    p_iso.add_argument("left")
    p_iso.add_argument("right")
    p_iso.add_argument("--mode", choices=("directed", "undirected"), default="directed")
    p_iso.add_argument("--output", help="write the witness JSON here instead of stdout")
    p_iso.set_defaults(fn=cmd_iso)

    p_verify = sub.add_parser("verify", help="run one claim checker")
    p_verify.add_argument("claim", help="claim id, e.g. thm-5.1 (see docs for the list)")
    for flag, (_, _, keywords) in _VERIFY_FLAGS.items():
        p_verify.add_argument(flag, **keywords)
    p_verify.set_defaults(fn=cmd_verify)

    p_search = sub.add_parser("search", help="scan graphs and assignments for isomorphic pairs")
    p_search.add_argument("--max-vertices", dest="max_vertices", type=int, required=True)
    p_search.add_argument("--pebble-cap", dest="pebble_cap", type=int, required=True)
    p_search.add_argument(
        "--fully-traversable",
        dest="fully_traversable",
        choices=("yes", "no", "any"),
        default="any",
    )
    p_search.add_argument("--format", choices=("json", "table"), default="table")
    p_search.add_argument("--output", help="write the result here instead of stdout")
    p_search.set_defaults(fn=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (PebblabError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

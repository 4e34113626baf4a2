"""Command-line interface.

graph6 on argv and JSON (or fixed-layout text) on stdout are the only
data planes; timing goes to stderr so stdout stays byte-identical across
runs.

Exit codes: 0 verdict-true/success, 1 verdict-false/certification
failure, 2 usage, parse, or infeasibility errors.  Every input error the
library raises is a ValueError, and main alone turns one into exit 2.

Each query runs in a fresh interpreter, so the layers only some
subcommands use (bounds, constructions, verify) are imported inside them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING, Callable, NamedTuple

from ._json import record
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from .predicates import PREDICATES, run_predicate
from .search import (
    DEFAULT_MAX_N,
    SEARCH_PREDICATES,
    density_profile,
    min_edges,
)

if TYPE_CHECKING:
    from fractions import Fraction
    from types import ModuleType

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


def _decode_arg(text: str, what: str) -> Graph:
    if text == "-":
        text = sys.stdin.readline()
    try:
        return graph6_decode(text)
    except Graph6Error as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


def _emit_json(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


# -- subcommands -------------------------------------------------------------


def _cmd_check(args) -> int:
    pattern = _decode_arg(args.pattern, "--pattern")
    host = _decode_arg(args.graph, "--graph")
    report = run_predicate(args.predicate, host, pattern)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        print(f"predicate: {report.predicate}")
        print(f"verdict: {'true' if report.verdict else 'false'}")
        if report.certificate_kind != "none":
            print(f"certificate: {report.certificate_kind} {report.certificate}")
    return EXIT_TRUE if report.verdict else EXIT_FALSE


def _cmd_compute(args) -> int:
    pattern = _decode_arg(args.pattern, "--pattern")
    started = time.perf_counter()
    result = min_edges(pattern, args.n, args.predicate, max_n=args.max_n)
    elapsed = time.perf_counter() - started
    if args.json:
        _emit_json(result.to_json_dict())
    else:
        print(f"pattern: {result.pattern}")
        print(f"n: {result.n}")
        print(f"predicate: {result.predicate}")
        print(f"min-edges: {result.min_edges}")
        for w in result.witnesses:
            print(f"witness: {w}")
        print(f"classes-examined: {result.graphs_examined}")
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_TRUE


class _Family(NamedTuple):
    needs: tuple[str, ...]  # flags without a default, checked in this order
    build: Callable[[ModuleType, argparse.Namespace], list[Graph]]  # (constructions, args)
    claim: str | None  # the predicate --certify re-runs on the last graph built
    claim_pattern: Callable[[argparse.Namespace, list[Graph]], Graph] | None


# In `construct --family` order; --pattern reaches build already decoded.
FAMILIES = {
    "near-matching": _Family(("k",), lambda c, a: [c.near_matching(a.k)], None, None),
    "dom-turan": _Family(
        ("n", "r"), lambda c, a: [c.dom_turan(a.n, a.r)],
        "dom-sat", lambda a, gs: complete_graph(a.r),
    ),
    "turan": _Family(
        ("n", "r"), lambda c, a: [c.turan(a.n, a.r)],
        "saturated", lambda a, gs: complete_graph(a.r + 1),
    ),
    "path": _Family(
        ("n", "r"), lambda c, a: [c.path_family(a.n, a.r, pad=a.pad)],
        "dom-sat", lambda a, gs: path_graph(a.r),
    ),
    "cycle-gadget": _Family(
        ("r",), lambda c, a: [c.cycle_gadget(a.n, a.r, a.loop_len)],
        "dom-sat", lambda a, gs: cycle_graph(a.r),
    ),
    "star": _Family(
        ("n", "r"), lambda c, a: [c.star_family(a.n, a.r, pad=a.pad)],
        "dom-sat", lambda a, gs: star_graph(a.r),
    ),
    "star-plus": _Family(
        ("s",), lambda c, a: list(c.star_plus_pair(a.s)),
        "dom-sat", lambda a, gs: gs[0],  # G_s, claimed for H_s
    ),
    "bridge": _Family(
        ("pattern", "n"), lambda c, a: [c.bridge_family(a.pattern, a.n)],
        "dom-sat", lambda a, gs: a.pattern,
    ),
    "neighborhood": _Family(
        ("pattern", "n"), lambda c, a: [c.neighborhood_family(a.pattern, a.n, pad=a.pad)],
        "dom-sat", lambda a, gs: a.pattern,
    ),
}

# sorted(verify.SUITES), kept here so that building the parser does not
# import verify; a test holds the two equal
SUITE_NAMES = ("connectivity", "constructions", "facts", "formulas", "lemma-trees")


def _cmd_construct(args) -> int:
    from . import constructions

    family = FAMILIES[args.family]
    for flag in family.needs:
        if getattr(args, flag) is None:
            raise ValueError(f"family {args.family!r} needs --{flag}")
    if "pattern" in family.needs:
        args.pattern = _decode_arg(args.pattern, "--pattern")
    graphs = family.build(constructions, args)
    claim = family.claim
    certified = None
    if args.certify and claim is not None:
        pattern = family.claim_pattern(args, graphs)
        certified = run_predicate(claim, graphs[-1], pattern).verdict
    graphs6 = [graph6_encode(g) for g in graphs]
    if args.json:
        fields = {"family": args.family, "graphs": graphs6, "claim": claim, "certified": certified}
        _emit_json(record(fields))
    else:
        for g6 in graphs6:
            print(g6)
    if args.certify:
        if claim is None:
            print("nothing to certify for this family", file=sys.stderr)
        else:
            status = "pass" if certified else "fail"
            print(f"certification ({claim}): {status}", file=sys.stderr)
            if not certified:
                return EXIT_FALSE
    return EXIT_TRUE


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _cmd_bounds(args) -> int:
    from .bounds import structural_bounds

    bs = structural_bounds(_decode_arg(args.pattern, "--pattern"))
    if args.json:
        _emit_json(bs.to_json_dict())
    else:
        for b in bs.lower:
            print(f"lower: {_frac(b.value)} ({b.source})")
        for b in bs.upper:
            print(f"upper: {_frac(b.value)} ({b.source})")
        if bs.best_lower is not None:
            print(f"best-lower: {_frac(bs.best_lower)}")
        if bs.best_upper is not None:
            print(f"best-upper: {_frac(bs.best_upper)}")
        for note in bs.notes:
            print(f"note: {note}")
    return EXIT_TRUE


def _cmd_profile(args) -> int:
    pattern = _decode_arg(args.pattern, "--pattern")
    prof = density_profile(pattern, args.n_max, args.predicate, max_n=args.max_n)
    if args.json:
        _emit_json(prof.to_json_dict())
    else:
        print(f"pattern: {prof.pattern}")
        print(f"predicate: {prof.predicate}")
        for n, m, d in prof.rows:
            print(f"n={n} min-edges={m} density={_frac(d)}")
        trend = prof.trend()
        print(
            "trend: min-edges "
            + ("non-decreasing" if trend["min_edges_non_decreasing"] else "not monotone")
            + ", density "
            + ("non-decreasing" if trend["density_non_decreasing"] else "not monotone")
            + f", {_frac(trend['first_density'])} -> {_frac(trend['last_density'])}"
        )
    return EXIT_TRUE


def _cmd_verify(args) -> int:
    from .verify import SUITES

    suite = SUITES[args.suite]()
    if args.json:
        checks = [c._asdict() for c in suite.checks]
        _emit_json(record({"suite": suite.name, "passed": suite.passed, "checks": checks}))
    else:
        print(f"suite: {suite.name}")
        for c in suite.checks:
            mark = "pass" if c.passed else "FAIL"
            line = f"[{mark}] {c.label}"
            if c.detail:
                line += f" ({c.detail})"
            print(line)
        print(f"result: {'pass' if suite.passed else 'fail'}")
    return EXIT_TRUE if suite.passed else EXIT_FALSE


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domsat",
        description="domination-saturation predicates, constructions, bounds, and exact search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON on stdout")

    search_common = argparse.ArgumentParser(add_help=False)
    search_common.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        help="search order cap; the hard limit 10 reaches only low edge counts"
        " (timings in the Caps paragraph of README.md)",
    )

    p = sub.add_parser("check", parents=[common], help="run a predicate on a graph")
    p.add_argument("--pattern", required=True, help="pattern graph6")
    p.add_argument("--graph", required=True, help="host graph6")
    p.add_argument("--predicate", required=True, choices=sorted(PREDICATES))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "compute", parents=[common, search_common], help="exact minimum edge count"
    )
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--predicate", required=True, choices=SEARCH_PREDICATES)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("construct", parents=[common], help="build a named family")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--loop-len", type=int, default=None)
    p.add_argument("--pattern", default=None, help="pattern graph6 (bridge/neighborhood)")
    p.add_argument("--pad", action="store_true", help="absorb remainders in one block")
    p.add_argument("--certify", action="store_true", help="re-run the family's claim")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("bounds", parents=[common], help="structural density bounds")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "profile", parents=[common, search_common], help="density profile over n"
    )
    p.add_argument("--pattern", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--predicate", default="dom-sat", choices=SEARCH_PREDICATES)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("verify", parents=[common], help="run a property battery")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 0 if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        # the base of every input error the library raises: Graph6Error,
        # ConstructionError, SearchCapError and the range checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

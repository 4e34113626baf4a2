"""Command-line interface.

graph6 on argv and JSON (or fixed-layout text) on stdout are the only
data planes; timing goes to stderr so stdout stays byte-identical across
runs.

Exit codes: 0 verdict-true/success, 1 verdict-false/certification
failure, 2 usage, parse, or infeasibility errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .bounds import structural_bounds
from .constructions import (
    ConstructionError,
    bridge_family,
    cycle_gadget,
    dom_turan,
    near_matching,
    neighborhood_family,
    path_family,
    star_family,
    star_plus_pair,
    turan,
)
from .graph6 import Graph6Error, graph6_decode, graph6_encode
from .graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from .predicates import PREDICATES, run_predicate
from .search import (
    DEFAULT_MAX_N,
    SEARCH_PREDICATES,
    density_profile,
    min_edges,
)
from .verify import SUITES

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


class _CliError(Exception):
    pass


def _decode_arg(text: str, what: str) -> Graph:
    if text == "-":
        text = sys.stdin.readline()
    try:
        return graph6_decode(text)
    except Graph6Error as exc:
        raise _CliError(f"bad {what}: {exc}") from exc


def _emit_json(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


# -- subcommands -------------------------------------------------------------


def _cmd_check(args) -> int:
    pattern = _decode_arg(args.pattern, "--pattern")
    host = _decode_arg(args.graph, "--graph")
    try:
        report = run_predicate(args.predicate, host, pattern)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
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
    try:
        result = min_edges(pattern, args.n, args.predicate, max_n=args.max_n)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
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
    print(f"elapsed: {result.elapsed:.3f}s", file=sys.stderr)
    return EXIT_TRUE


def _build_family(args):
    """Returns (graphs to print, claimed predicate name, claim pattern)."""
    fam = args.family

    def need(name):
        value = getattr(args, name.replace("-", "_"))
        if value is None:
            raise _CliError(f"family {fam!r} needs --{name}")
        return value

    if fam == "near-matching":
        return [near_matching(need("k"))], None, None
    if fam == "dom-turan":
        n, r = need("n"), need("r")
        return [dom_turan(n, r)], "dom-sat", complete_graph(r)
    if fam == "turan":
        n, r = need("n"), need("r")
        return [turan(n, r)], "saturated", complete_graph(r + 1)
    if fam == "path":
        n, r = need("n"), need("r")
        return [path_family(n, r, pad=args.pad)], "dom-sat", path_graph(r)
    if fam == "cycle-gadget":
        r = need("r")
        return [cycle_gadget(args.n, r, args.loop_len)], "dom-sat", cycle_graph(r)
    if fam == "star":
        n, r = need("n"), need("r")
        return [star_family(n, r, pad=args.pad)], "dom-sat", star_graph(r)
    if fam == "star-plus":
        s = need("s")
        g_s, h_s = star_plus_pair(s)
        return [g_s, h_s], "dom-sat", g_s
    if fam == "bridge":
        f = _decode_arg(need("pattern"), "--pattern")
        return [bridge_family(f, need("n"))], "dom-sat", f
    if fam == "neighborhood":
        f = _decode_arg(need("pattern"), "--pattern")
        return [neighborhood_family(f, need("n"), pad=args.pad)], "dom-sat", f
    raise _CliError(f"unknown family {fam!r}")


def _cmd_construct(args) -> int:
    try:
        graphs, claim, claim_pattern = _build_family(args)
    except ConstructionError as exc:
        raise _CliError(str(exc)) from exc
    certified = None
    if args.certify and claim is not None:
        target = graphs[-1]  # the witness graph (H_s for star-plus)
        report = run_predicate(claim, target, claim_pattern)
        certified = report.verdict
    if args.json:
        _emit_json(
            {
                "schema": "domsat/1",
                "family": args.family,
                "graphs": [graph6_encode(g) for g in graphs],
                "claim": claim,
                "certified": certified,
            }
        )
    else:
        for g in graphs:
            print(graph6_encode(g))
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
    pattern = _decode_arg(args.pattern, "--pattern")
    try:
        bs = structural_bounds(pattern)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
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
    try:
        prof = density_profile(pattern, args.n_max, args.predicate, max_n=args.max_n)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
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
    suite = SUITES[args.suite]()
    if args.json:
        _emit_json(
            {
                "schema": "domsat/1",
                "suite": suite.name,
                "passed": suite.passed,
                "checks": [
                    {"label": c.label, "passed": c.passed, "detail": c.detail}
                    for c in suite.checks
                ],
            }
        )
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
        " (levels m <= 10 at n = 10 take about 1.2 s, m <= 12 about 6.5 s)",
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
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "near-matching",
            "dom-turan",
            "turan",
            "path",
            "cycle-gadget",
            "star",
            "star-plus",
            "bridge",
            "neighborhood",
        ],
    )
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
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
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
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

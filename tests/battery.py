"""Output battery: fixed CLI calls, run in-process through cli.main, with
one SHA-256 per group of calls.

    python tests/battery.py

A change that claims byte-identical output runs this at its parent and
at itself and quotes both sets of digests.  Each call feeds its group's
digest with its argv, its exit code, its stdout and its stderr without
the timing line `compute` writes there.  Every group runs in one
process, so the library's caches carry over from call to call; a cache
that changed an answer would show here too.  Tier-1 pins the digest of
FAST, a subset that runs in about a second
(tests/test_cli.py::test_battery_fast_subset_digest).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
from pathlib import Path
from typing import Iterable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from domsat import cli  # noqa: E402
from domsat.graph6 import graph6_encode  # noqa: E402
from domsat.graphs import from_edges  # noqa: E402

POOL = {"K3": "Bw", "K4": "C~", "C4": "Cl", "C5": "Dhc", "P3": "Bg", "P4": "Ch", "K1,3": "Cs"}
PREDICATES = ("dom-sat", "dominated", "free", "saturated", "semi-saturated", "weakly-saturated")

# the search-cold benchmark's queries
SEARCH_COLD = (
    ("K3", 7, "saturated"), ("K4", 7, "saturated"), ("K3", 7, "dom-sat"),
    ("C4", 7, "dom-sat"), ("C5", 7, "dom-sat"), ("C5", 7, "semi-saturated"),
    ("C4", 7, "weakly-saturated"), ("K3", 8, "saturated"), ("P3", 8, "dom-sat"),
    ("P4", 8, "dom-sat"),
)

# (family flags) for construct --certify; the last one fails its claim
CONSTRUCT = (
    "near-matching --k 5",
    "dom-turan --n 12 --r 4",
    "dom-turan --n 21 --r 3",
    "turan --n 10 --r 3",
    "path --n 10 --r 5 --pad",
    "cycle-gadget --r 6 --n 9",
    "star --n 10 --r 3 --pad",
    "star-plus --s 5",
    "bridge --pattern Ch --n 12",
    "neighborhood --pattern Cs --n 10 --pad",
    "cycle-gadget --r 6 --loop-len 4",
)

PROFILE = (
    "--pattern Bw --n-max 7",
    "--pattern Bg --n-max 7 --predicate saturated",
    "--pattern Cl --n-max 6 --predicate semi-saturated",
    "--pattern Cs --n-max 6 --predicate weakly-saturated",
)

ERRORS = (
    "check --pattern ?? --graph Bw --predicate free",
    "check --pattern Bw --graph Bw~ --predicate free",
    "check --pattern Bw --graph Bw --predicate nonsense",
    "check --pattern Bw --predicate free",
    "compute --pattern Bw --n 30 --predicate dom-sat",
    "compute --pattern Bw --n 0 --predicate dom-sat",
    "compute --pattern Bw --n 5 --predicate free",
    "compute --pattern Bw --n 11 --predicate dom-sat --max-n 11",
    "profile --pattern Bw --n-max 11 --max-n 20",
    "profile --pattern ?? --n-max 5",
    "bounds --pattern ??",
    "construct --family near-matching",
    "construct --family dom-turan --n 8",
    "construct --family bridge --n 9",
    "construct --family path --n 10 --r 5",
    "construct --family dom-turan --n 100 --r 4",
    "construct --family star-plus --s 40",
    "construct --family turan --n 64 --r 64 --certify",
    "construct --family nonsense",
    "verify --suite nonsense",
    "nonsense",
    "",
)


def _hosts(count: int, seed: int) -> list[str]:
    """count graph6 strings of G(n, 1/2), n drawn from 6..10, from the seed."""
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        n = rnd.randint(6, 10)
        edges = [(u, v) for v in range(n) for u in range(v) if rnd.random() < 0.5]
        out.append(graph6_encode(from_edges(n, edges)))
    return out


def _both(argvs: Iterable[str]) -> list[str]:
    return [form for argv in argvs for form in (argv, argv + " --json")]


GROUPS: dict[str, list[str]] = {
    "search-cold": _both(
        f"compute --pattern {POOL[p]} --n {n} --predicate {pred}" for p, n, pred in SEARCH_COLD
    ),
    "check": [
        f"check --pattern {pattern} --graph {host} --predicate {pred} --json"
        for host in _hosts(24, 2018) for pattern in POOL.values() for pred in PREDICATES
    ],
    "verify": _both(f"verify --suite {suite}" for suite in cli.SUITE_NAMES),
    "bounds": _both(f"bounds --pattern {pattern}" for pattern in (*POOL.values(), "D?{", "EEh_")),
    "profile": _both(f"profile {args}" for args in PROFILE),
    "construct": _both(f"construct --family {family} --certify" for family in CONSTRUCT),
    "errors": list(ERRORS),
}

# the tier-1 subset
FAST: list[str] = [
    *_both(f"compute --pattern {POOL[p]} --n 6 --predicate dom-sat" for p in ("K3", "C4", "P4")),
    *GROUPS["check"][: 3 * len(POOL) * len(PREDICATES)],
    *(argv for argv in GROUPS["verify"] if "formulas" not in argv),
    *GROUPS["bounds"],
    *GROUPS["construct"],
    *GROUPS["errors"],
]


def run(argv: str) -> bytes:
    """One call's record: argv, exit code, stdout, stderr less timing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    err_lines = [line for line in err.getvalue().splitlines(True) if not line.startswith("elapsed:")]
    return f"$ {argv}\n{code}\n{out.getvalue()}--\n{''.join(err_lines)}==\n".encode()


def digest(argvs: Iterable[str]) -> str:
    """SHA-256 over the records of argvs, run in order.  argparse wraps its
    usage text to the terminal width, so the width is fixed meanwhile."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        h = hashlib.sha256()
        for argv in argvs:
            h.update(run(argv))
        return h.hexdigest()
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def main() -> int:
    for name, argvs in GROUPS.items():
        print(f"{name} ({len(argvs)} calls): {digest(argvs)}")
    print(f"fast ({len(FAST)} calls): {digest(FAST)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

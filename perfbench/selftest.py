"""Shows that each output check can fail: every check gets one wrong
output, which it must reject, and the matching right one, which it must
accept.  run.py runs this before every run and stops if a check is dead.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import checks
import naive


def _g6(n: int, edges) -> str:
    return naive.g6_encode(n, naive.edge_mask(edges))


def cases():
    """(what is wrong, errors for the wrong output, errors for the right one)."""
    k3 = _g6(3, [(0, 1), (0, 2), (1, 2)])
    k4_minus_edge = _g6(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    star = [(0, i) for i in range(1, 5)]  # K_{1,4}: saturated for K3 with sat(5, 3) = 4 edges
    yield ("flipped verdict",
           checks.check_verdict(k3, k4_minus_edge, "dom-sat", False),
           checks.check_verdict(k3, k4_minus_edge, "dom-sat", True))
    yield ("witness with one edge removed",
           checks.check_witness(k3, 5, "saturated", 4, _g6(5, star[:-1])),
           checks.check_witness(k3, 5, "saturated", 4, _g6(5, star)))
    yield ("witness with one edge removed, claimed at its own size",
           checks.check_witness(k3, 5, "saturated", 3, _g6(5, star[:-1])),
           checks.check_witness(k3, 5, "saturated", 4, _g6(5, star)))
    c5 = _g6(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])  # K3-saturated, one edge too many
    yield ("minimum off the clique formula",
           checks.check_search(k3, 5, "saturated", {
               "n": 5, "predicate": "saturated", "min_edges": 5, "witnesses": [c5]}),
           checks.check_search(k3, 5, "saturated", {
               "n": 5, "predicate": "saturated", "min_edges": 4, "witnesses": [_g6(5, star)]}))
    yield ("minimum one too high",
           checks.check_minimum(k3, 5, "dom-sat", 7),
           checks.check_minimum(k3, 5, "dom-sat", 6))
    yield ("wrong class total",
           checks.check_class_total(8, 12345),
           checks.check_class_total(8, 12346))
    implied = {"dominated": True, "semi-saturated": True, "saturated": False,
               "dom-sat": True, "weakly-saturated": True}
    yield ("verdicts breaking an implication",
           checks.check_implications(k4_minus_edge, k3, {**implied, "dominated": False}),
           checks.check_implications(k4_minus_edge, k3, implied))
    paths = [(3 * i + j, 3 * i + j + 1) for i in range(4) for j in range(2)]
    want = {"n": 12, "edges": 8, "copies": 4, "aut": 24 * 2 ** 4, "dom-sat": True}
    got = {**want, "canonical": _g6(12, paths)}
    yield ("|Aut| off the closed form",
           checks.check_family("path_family(12,3)", want, {**got, "aut": want["aut"] // 2}),
           checks.check_family("path_family(12,3)", want, got))


def run() -> list[str]:
    """Descriptions of the checks that accepted a wrong output or
    rejected a right one; empty when every check works."""
    bad = []
    for what, wrong, right in cases():
        if not wrong:
            bad.append(f"{what}: accepted")
        if right:
            bad.append(f"{what}: right output rejected: {right}")
    return bad


def main() -> int:
    for what, wrong, right in cases():
        status = "rejected" if wrong and not right else "NOT REJECTED"
        print(f"{status}: {what}" + (f" ({wrong[0]})" if wrong else ""))
    return 1 if run() else 0


if __name__ == "__main__":
    sys.exit(main())

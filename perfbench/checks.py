"""Output checks.  Each returns a list of error strings, empty when the
output is right; expected values come from naive.py, never from domsat."""

from __future__ import annotations

from math import comb

import naive

# OEIS A000088: graphs on n unlabelled vertices
CLASS_TOTALS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668}


def check_verdict(pattern_g6: str, host_g6: str, predicate: str, verdict: bool) -> list[str]:
    want = naive.verdicts(pattern_g6, host_g6)[predicate]
    if verdict != want:
        return [f"{predicate}({host_g6}, {pattern_g6}) is {verdict}, definition gives {want}"]
    return []


def check_implications(host_g6: str, pattern_g6: str, v: dict[str, bool]) -> list[str]:
    """dom-sat => dominated and semi-saturated; saturated => free;
    semi-saturated => weakly-saturated."""
    free = naive.verdicts(pattern_g6, host_g6)["free"]
    broken = []
    if v["dom-sat"] and not (v["dominated"] and v["semi-saturated"]):
        broken.append("dom-sat without dominated and semi-saturated")
    if v["saturated"] and not free:
        broken.append("saturated but not free")
    if v["semi-saturated"] and not v["weakly-saturated"]:
        broken.append("semi-saturated but not weakly-saturated")
    return [f"{host_g6} vs {pattern_g6}: {b}" for b in broken]


def check_witness(pattern_g6: str, n: int, predicate: str, m: int, witness: str) -> list[str]:
    wn, mask = naive.g6_decode(witness)
    if wn != n:
        return [f"witness {witness} has {wn} vertices, not {n}"]
    if mask.bit_count() != m:
        return [f"witness {witness} has {mask.bit_count()} edges, not {m}"]
    if not naive.verdicts(pattern_g6, witness)[predicate]:
        return [f"witness {witness} is not {predicate} for {pattern_g6}"]
    return []


def clique_order(pattern_g6: str) -> int | None:
    k, mask = naive.g6_decode(pattern_g6)
    return k if mask.bit_count() == comb(k, 2) else None


def check_search(pattern_g6: str, n: int, predicate: str, out: dict) -> list[str]:
    """A min_edges answer: its fields, every witness, and the clique
    saturation formula where it applies."""
    if (out.get("n"), out.get("predicate")) != (n, predicate) or not out.get("witnesses"):
        return [f"malformed answer for ({pattern_g6}, {n}, {predicate}): {out}"]
    m = out["min_edges"]
    errors = []
    for w in out["witnesses"]:
        errors += check_witness(pattern_g6, n, predicate, m, w)
    r = clique_order(pattern_g6)
    if predicate == "saturated" and r is not None and m != naive.sat_clique(n, r):
        errors.append(f"sat({n}, K{r}) = {m}, formula gives {naive.sat_clique(n, r)}")
    return errors


def check_minimum(pattern_g6: str, n: int, predicate: str, m: int) -> list[str]:
    """Minimality by trying every labelled graph on n <= 6 vertices."""
    want = naive.brute_min_edges(pattern_g6, n, predicate)
    if m != want:
        return [f"min_edges({pattern_g6}, {n}, {predicate}) = {m}, brute force gives {want}"]
    return []


def check_class_total(n: int, total: int) -> list[str]:
    if total != CLASS_TOTALS[n]:
        return [f"{total} classes on {n} vertices, A000088 gives {CLASS_TOTALS[n]}"]
    return []


def check_family(label: str, want: dict, got: dict) -> list[str]:
    """A certified family: every field the closed forms fix, and that the
    canonical string decodes to a graph of the same order and size."""
    errors = [
        f"{label}: {key} is {got[key]}, expected {want[key]}"
        for key in want if got[key] != want[key]
    ]
    cn, cmask = naive.g6_decode(got["canonical"])
    if (cn, cmask.bit_count()) != (want["n"], want["edges"]):
        errors.append(f"{label}: canonical form {got['canonical']} has the wrong order or size")
    return errors

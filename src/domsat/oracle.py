"""Naive labeled-graph oracle, independent of the fast paths.

A labeled graph on n vertices is an integer whose bits select pairs from
the lexicographic pair list; the canonical key of a class is the minimum
of that integer over all n! vertex permutations.  decide settles the six
predicates from their definitions over every copy of the pattern in K_n.
Only graphs is imported from domsat, so agreement with enumeration.py
and with predicates.py (and embed and canon under it) is a cross-check.

Class counting sweeps the whole 2^C(n,2) space, so it takes n <=
MAX_ORACLE_VERTICES = 6; naive_min_edges, a rerun driven by edge-subset
enumeration from 0 edges up (from 1 for dom-sat, whose hosts have an
edge), accepts n <= 7, where only minima of a few edges finish.
For larger n, level_counts gives the class counts by Burnside's lemma
without building any graph.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, gcd
from typing import Iterator

from .graphs import Graph, from_edges

MAX_ORACLE_VERTICES = 6


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _perm_bit_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """For each permutation, where each pair-bit position lands."""
    pairs = _pairs(n)
    index = {p: i for i, p in enumerate(pairs)}
    return tuple(
        tuple(index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs)
        for perm in permutations(range(n))
    )


def _remap(code: int, bit_map: tuple[int, ...]) -> int:
    out = 0
    i = 0
    while code:
        if code & 1:
            out |= 1 << bit_map[i]
        code >>= 1
        i += 1
    return out


def perm_canonical_key(n: int, code: int) -> int:
    """Minimum relabeling of the pair-bit code over all permutations."""
    return min(_remap(code, bm) for bm in _perm_bit_maps(n))


def labeled_class_counts(n: int) -> dict[int, int]:
    """Isomorphism class counts by edge count from the full labeled sweep.

    Marks whole permutation orbits as seen, so the cost is dominated by
    one pass over all 2^C(n,2) labeled graphs.
    """
    if not 1 <= n <= MAX_ORACLE_VERTICES:
        raise ValueError(f"oracle sweep supports 1..{MAX_ORACLE_VERTICES} vertices")
    maps = _perm_bit_maps(n)
    total_bits = n * (n - 1) // 2
    seen = bytearray(1 << total_bits)
    counts: dict[int, int] = {}
    for code in range(1 << total_bits):
        if seen[code]:
            continue
        counts[code.bit_count()] = counts.get(code.bit_count(), 0) + 1
        for bm in maps:
            seen[_remap(code, bm)] = 1
    return counts


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into non-increasing parts of size at most largest."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def level_counts(n: int) -> list[int]:
    """Isomorphism class counts of n-vertex graphs, indexed by edge count.

    Burnside's lemma over S_n acting on edge sets (Harary and Palmer,
    Graphical Enumeration, 1973; OEIS A008406): a permutation fixes an
    edge set exactly when the set is a union of its cycles on vertex
    pairs, so each cycle type contributes prod (1 + x^len) over its pair
    cycles, weighted by the number of permutations of that type.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    top = n * (n - 1) // 2
    totals = [0] * (top + 1)
    for cycles in _partitions(n, n):
        pair_cycles = []
        for i, a in enumerate(cycles):
            pair_cycles += [a] * ((a - 1) // 2)  # pairs inside one a-cycle
            if a % 2 == 0:
                pair_cycles.append(a // 2)  # its a/2 antipodal pairs
            for b in cycles[i + 1:]:
                g = gcd(a, b)
                pair_cycles += [a * b // g] * g
        fixed = [1] + [0] * top  # fixed edge sets by size
        for length in pair_cycles:
            for m in range(top, length - 1, -1):
                fixed[m] += fixed[m - length]
        centralizer = 1
        for a, j in Counter(cycles).items():
            centralizer *= a**j * factorial(j)
        perms_of_type = factorial(n) // centralizer
        for m in range(top + 1):
            totals[m] += perms_of_type * fixed[m]
    return [t // factorial(n) for t in totals]


@lru_cache(maxsize=None)
def _copies(f: Graph, n: int) -> tuple[tuple, tuple[int, ...]]:
    """One injective map onto each copy of f in K_n (f vertex i to
    image[i]) and, per pair of K_n, the copies using it as a bit mask."""
    index = {p: i for i, (u, v) in enumerate(_pairs(n)) for p in ((u, v), (v, u))}
    found: dict[int, tuple[int, ...]] = {}
    for image in permutations(range(n), f.n):
        found.setdefault(sum(1 << index[image[a], image[b]] for a, b in f.edges()), image)
    using = tuple(
        sum(1 << c for c, s in enumerate(found) if s >> b & 1) for b in range(len(index) // 2)
    )
    return tuple(found.values()), using


def _gap_use(gaps: list[int], using: tuple[int, ...]) -> tuple[int, list[int]]:
    """For gaps, the pairs missing from G: the copies using some gap, and
    the gaps b for which some copy S has S minus G = {b}."""
    once = twice = 0
    for b in gaps:
        twice |= once & using[b]
        once |= using[b]
    return once, [b for b in gaps if using[b] & ~twice]


def decide(g: Graph, f: Graph) -> dict[str, tuple[bool, str, tuple]]:
    """Each predicate's (verdict, certificate kind, certificate) for host
    g and pattern f, from the definitions.

    A conjunction reports its first test to fail: a copy inside g (as an
    embedding), the first uncovered edge in edges() order, or the first
    non-edge no copy can use in non_edges() order.  weakly-saturated adds
    the first non-edge some copy can use until none is left, and reports
    that order, or the non-edges left when there are any.
    """
    pairs = _pairs(g.n)
    images, using = _copies(f, g.n)
    gaps = [b for b, (u, v) in enumerate(pairs) if not g.has_edge(u, v)]
    outside, usable = _gap_use(gaps, using)
    inside = (1 << len(images)) - 1 & ~outside  # the copies inside g
    failed = {  # each test's failure, or None
        "embedding": images[(inside & -inside).bit_length() - 1] if inside else None,
        "uncovered-edge": next((p for b, p in enumerate(pairs)
                                if g.has_edge(*p) and not using[b] & inside), None),
        "non-edge": next((pairs[b] for b in gaps if b not in usable), None),
    }
    order = []
    while usable:
        gaps.remove(usable[0])
        order.append(pairs[usable[0]])
        usable = _gap_use(gaps, using)[1]
    reports = {"weakly-saturated": (False, "closure-gap", tuple(pairs[b] for b in gaps))
               if gaps else (True, "closure-order", tuple(order))}
    for name, tests in (
        ("free", ("embedding",)), ("semi-saturated", ("non-edge",)),
        ("saturated", ("embedding", "non-edge")), ("dominated", ("uncovered-edge",)),
        ("dom-sat", ("uncovered-edge", "non-edge")),
    ):
        kind = next((t for t in tests if failed[t] is not None), None)
        reports[name] = (False, kind, failed[kind]) if kind else (True, "none", ())
    return reports


def naive_min_edges(
    pattern: Graph, n: int, predicate: str
) -> tuple[int, list[Graph]]:
    """Minimum edge count and witnesses by labeled edge-subset sweep.

    Classes are deduplicated with the permutation-canonical key before
    testing, and each is decided from the definitions (decide); witnesses
    come back as one labeled representative per class.  The sweep starts
    at 0 edges, and at 1 for dom-sat, whose hosts have at least one edge
    (the blanket assumption search.py makes too).  Every edge subset up
    to the minimum is keyed, and at n = 7 a key tries 5 040 permutations
    (12 ms): minima of 2, 3 and 4 edges took 1.1, 8.7 and 48 s there on a
    2-core x86-64 host (Python 3.11), each edge about five times the last.
    """
    if not pattern.n <= n <= MAX_ORACLE_VERTICES + 1:
        raise ValueError(
            f"naive sweep supports pattern order..{MAX_ORACLE_VERTICES + 1} vertices"
        )
    predicate = predicate.replace("_", "-")
    if predicate not in decide(pattern, pattern):  # keyed by the six names
        raise ValueError(f"unknown predicate {predicate!r}")
    pairs = _pairs(n)
    start = 1 if predicate == "dom-sat" else 0  # the at-least-one-edge assumption
    for m in range(start, len(pairs) + 1):
        tested: dict[int, Graph | None] = {}  # class key -> the graph if it passed
        for chosen in combinations(range(len(pairs)), m):
            key = perm_canonical_key(n, sum(1 << i for i in chosen))
            if key not in tested:
                g = from_edges(n, [pairs[i] for i in chosen])
                tested[key] = g if decide(g, pattern)[predicate][0] else None
        hits = [tested[k] for k in sorted(tested) if tested[k] is not None]
        if hits:
            return m, hits
    raise RuntimeError("no graph passed at any edge count; predicate broken")

"""Naive labeled-graph oracle, independent of the fast enumeration path.

A labeled graph on n vertices is an integer whose bits select pairs from
the lexicographic pair list; the canonical key of a class is the minimum
of that integer over all n! vertex permutations.  Nothing here is shared
with enumeration.py, so agreement between the two class pipelines is a
real cross-check.  naive_min_edges decides each graph with run_predicate
(loading predicates, embed and canon), so it checks the sweep, not the
predicates (ROADMAP item 1).

Class counting sweeps the whole 2^C(n,2) space, so it takes n <=
MAX_ORACLE_VERTICES = 6; naive_min_edges, a rerun driven by edge-subset
enumeration, accepts n <= 7.  For larger n, level_counts gives the class
counts by Burnside's lemma without building any graph.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, gcd
from typing import Iterator

from .graphs import Graph, from_edges
from .predicates import run_predicate

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


def _graph_from_code(n: int, code: int) -> Graph:
    pairs = _pairs(n)
    edges = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
    return from_edges(n, edges)


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


def naive_min_edges(
    pattern: Graph, n: int, predicate: str
) -> tuple[int, list[Graph]]:
    """Minimum edge count and witnesses by labeled edge-subset sweep.

    Classes are deduplicated with the permutation-canonical key before
    testing; witnesses come back as one labeled representative per
    class.  Only graphs with at least one edge are swept.
    """
    if not pattern.n <= n <= MAX_ORACLE_VERTICES + 1:
        raise ValueError(
            f"naive sweep supports pattern order..{MAX_ORACLE_VERTICES + 1} vertices"
        )
    pairs = _pairs(n)
    for m in range(1, len(pairs) + 1):
        tested: set[int] = set()
        hits: dict[int, Graph] = {}
        for chosen in combinations(range(len(pairs)), m):
            code = 0
            for i in chosen:
                code |= 1 << i
            key = perm_canonical_key(n, code)
            if key in tested:
                continue
            tested.add(key)
            g = _graph_from_code(n, code)
            if run_predicate(predicate, g, pattern).verdict:
                hits[key] = g
        if hits:
            return m, [hits[k] for k in sorted(hits)]
    raise RuntimeError("no graph passed at any edge count; predicate broken")

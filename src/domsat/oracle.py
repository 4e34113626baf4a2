"""Naive labeled-graph oracle, independent of the fast enumeration path.

A labeled graph on n vertices is an integer whose bits select pairs from
the lexicographic pair list; the canonical key of a class is the minimum
of that integer over all n! vertex permutations.  Nothing here is shared
with enumeration.py or canon.py, so agreement between the two pipelines
is a real cross-check rather than a tautology.

Intended for n <= 6 (class counting sweeps the whole 2^C(n,2) space) and
for small minimum-edge reruns driven by edge-subset enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

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

#!/usr/bin/env python3
"""The exhaustive machinery that grounds every number in this package.

Shows the two independent enumeration pipelines agreeing, the naive
labeled oracle re-deriving a search value, the tree-lemma checks of the
`verify` suite lemma-trees, and the structural bound set for a custom
pattern.

Usage: python demos/04_search_oracles.py
"""

from domsat import (
    class_count,
    complete_graph,
    from_edges,
    graph6_encode,
    min_edges,
    structural_bounds,
)
from domsat.oracle import labeled_class_counts, naive_min_edges
from domsat.verify import suite_lemma_trees

print("== two enumeration pipelines, one answer ==")
for n in (4, 5, 6):
    fast_total = sum(class_count(n, m) for m in range(n * (n - 1) // 2 + 1))
    oracle_total = sum(labeled_class_counts(n).values())
    assert fast_total == oracle_total
    print(f"n={n}: canonical-augmentation {fast_total} classes, naive orbit sweep {oracle_total}")

print()
print("== a search value re-derived from scratch ==")
k3 = complete_graph(3)
fast = min_edges(k3, 5, "dom-sat")
naive_m, naive_wits = naive_min_edges(k3, 5, "dom-sat")
assert fast.min_edges == naive_m
print(f"dom-sat minimum for K_3 at n=5: level sweep {fast.min_edges}, labeled oracle {naive_m}")
print(f"witness classes: {list(fast.witnesses)} vs {len(naive_wits)} labeled representative(s)")

print()
print("== the tree-witness battery ==")
for check in suite_lemma_trees().checks:
    print(f"{check.label}: {check.detail}")
    assert check.passed

print()
print("== structural bounds for a custom pattern ==")
# a triangle with a pendant path of two vertices
paw_plus = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
print(f"pattern {graph6_encode(paw_plus)}:")
bs = structural_bounds(paw_plus)
for b in bs.lower:
    print(f"  lower {b.value} ({b.source})")
for b in bs.upper:
    print(f"  upper {b.value} ({b.source})")
print(f"  best window: [{bs.best_lower}, {bs.best_upper}], consistent: {bs.consistent}")
for note in bs.notes:
    print(f"  note: {note}")

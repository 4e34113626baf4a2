"""Acceptance battery: one test per criterion, each printing a status line.

Stated runtime ceilings are asserted where the criterion gives one; exact
values are asserted with no tolerance since everything here is integer or
rational arithmetic.
"""

import random
import time

from domsat import (
    Graph,
    are_isomorphic,
    complete_graph,
    density_profile,
    dom_turan,
    dsat_clique_density,
    graph6_decode,
    graph6_encode,
    min_edges,
    path_graph,
    sat_clique,
)
from domsat.enumeration import all_classes, levels
from domsat.oracle import labeled_class_counts, naive_min_edges
from domsat.verify import (
    suite_connectivity,
    suite_constructions,
    suite_facts,
    suite_lemma_trees,
)

from conftest import run_python


def _report(number, name, ok=True):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_clique_formula_cross_check():
    started = time.perf_counter()
    for r in (3, 4):
        for n in range(r, 9):
            got = min_edges(complete_graph(r), n, "saturated").min_edges
            assert got == sat_clique(n, r), (n, r, got)
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"took {elapsed:.0f}s, limit 300s"
    _report(1, f"clique saturation formula, r in {{3,4}}, n <= 8 ({elapsed:.1f}s)")


def test_criterion_02_dom_sat_oracle_values():
    k3 = complete_graph(3)
    k2 = complete_graph(2)
    p3 = path_graph(3)

    fast = min_edges(k3, 4, "dom-sat")
    assert fast.min_edges == 5 and len(fast.witnesses) == 1
    expected = complete_graph(4).remove_edge(0, 1)
    assert are_isomorphic(graph6_decode(fast.witnesses[0]), expected)
    naive_m, naive_wits = naive_min_edges(k3, 4, "dom-sat")
    assert naive_m == 5 and len(naive_wits) == 1
    assert are_isomorphic(naive_wits[0], expected)

    assert min_edges(k3, 5, "dom-sat").min_edges == 6
    assert naive_min_edges(k3, 5, "dom-sat")[0] == 6

    for n in range(2, 8):
        assert min_edges(k2, n, "dom-sat").min_edges == 1
        assert naive_min_edges(k2, n, "dom-sat")[0] == 1

    assert min_edges(p3, 6, "dom-sat").min_edges == 4
    assert naive_min_edges(p3, 6, "dom-sat")[0] == 4

    _report(2, "dom-sat minimums reproduced by the naive labeled oracle")


def test_criterion_03_construction_certification():
    started = time.perf_counter()
    suite = suite_constructions()
    elapsed = time.perf_counter() - started
    for check in suite.checks:
        assert check.passed, (check.label, check.detail)
    assert elapsed < 600, f"took {elapsed:.0f}s, limit 600s"
    _report(3, f"every family certified against its claim ({elapsed:.1f}s)")


def test_criterion_04_cycle_negative_control():
    from domsat import cycle_gadget, cycle_gadget_layout, cycle_graph, is_semi_saturated

    for r in (5, 6, 7):
        n, ell, p, loops = cycle_gadget_layout(None, r, r - 2)
        rep = is_semi_saturated(cycle_gadget(None, r, r - 2), cycle_graph(r))
        assert not rep.verdict
        u, v = rep.certificate
        assert u >= ell and v >= ell
        assert (u - ell) % p == (v - ell) % p and (u - ell) // p != (v - ell) // p
    _report(4, "overlong loops break semi-saturation at corresponding vertices")


def test_criterion_05_tree_lemma_suite():
    checks = suite_lemma_trees().checks
    assert [(c.label, c.passed, c.detail) for c in checks] == [
        ("tree-lemma-j2", True, "6 trees, 3 stars"),
        ("tree-lemma-j3", True, "46 trees, 6 stars"),
    ]
    _report(5, "tree lemma holds for every tree class at j=2 and j=3")


def test_criterion_06_theory_facts_as_properties():
    started = time.perf_counter()
    facts = suite_facts()
    conn = suite_connectivity()
    elapsed = time.perf_counter() - started
    for check in facts.checks + conn.checks:
        assert check.passed, (check.label, check.detail)
    assert elapsed < 900, f"took {elapsed:.0f}s, limit 900s"
    _report(6, f"transitivity, degree, and connectivity facts on <=6 vertices ({elapsed:.1f}s)")


def test_criterion_07_enumeration_integrity():
    for n in (4, 5, 6):
        fast = {m: len(level) for m, level in enumerate(levels(n)) if level}
        oracle = labeled_class_counts(n)
        assert fast == oracle, n
    totals = {n: sum(labeled_class_counts(n).values()) for n in (4, 5, 6)}
    _report(7, f"canonical and naive enumerations agree (totals {totals})")


def test_criterion_08_density_trend():
    prof = density_profile(complete_graph(3), 8)
    ms = [m for _, m, _ in prof.rows]
    assert all(a <= b for a, b in zip(ms, ms[1:])), ms
    for n, m, d in prof.rows:
        assert m <= dom_turan(n, 3).edge_count, (n, m)
    target = dsat_clique_density(3)
    assert prof.densities()[-1] <= target
    assert prof.densities()[-1] >= prof.densities()[0]
    gap = prof.gap_to(target)
    # the limit itself is not desk-verifiable; the gap is reported, not bounded
    _report(8, f"profile rises toward 3/2, gap at n=8 is {gap} (no tolerance asserted)")


def test_criterion_09_fresh_process_determinism():
    instances = [
        ("Bw", "4"),   # dom-sat minimum 5
        ("Bw", "5"),   # dom-sat minimum 6
        ("A_", "6"),   # K_2 pattern
        ("Bg", "6"),   # P_3 pattern
    ]
    for pattern, n in instances:
        outputs = []
        for _ in range(2):
            proc = run_python(
                "-m", "domsat", "compute",
                "--pattern", pattern, "--n", n, "--predicate", "dom-sat",
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], (pattern, n)
    _report(9, "compute output byte-identical across two fresh processes")


def test_criterion_10_graph6_round_trip():
    rng = random.Random(60914)
    for _ in range(10_000):
        n = rng.randint(1, 40)
        rows = [0] * n
        for u in range(n - 1):
            upper = rng.getrandbits(n - u - 1)
            rows[u] |= upper << (u + 1)
            bits = upper
            while bits:
                low = bits & -bits
                rows[u + 1 + low.bit_length() - 1] |= 1 << u
                bits ^= low
        g = Graph(n, tuple(rows))
        assert graph6_decode(graph6_encode(g)) == g
    for n in range(1, 7):
        for g in all_classes(n):
            assert graph6_decode(graph6_encode(g)) == g
    _report(10, "graph6 round-trip on 10000 random graphs and all classes n <= 6")

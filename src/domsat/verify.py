"""Property batteries that tie the theory together.

Each suite checks one cluster of facts over exhaustive desk-scale
universes and returns a structured report; the command-line `verify`
subcommand and the acceptance tests both run these.

Quantification note: hosts range over graphs with at least one edge
(the theory's blanket assumption).  Semi-saturation-based facts exempt
complete hosts smaller than the pattern, which are vacuously
semi-saturated and degenerate for degree or connectivity conclusions.
"""

from __future__ import annotations

from typing import NamedTuple

from .bounds import dsat_clique_upper_edges, sat_clique
from .constructions import (
    cycle_gadget,
    cycle_gadget_layout,
    dom_turan,
    path_component_size,
    path_family,
    star_family,
    star_plus_pair,
)
from .enumeration import all_classes
from .graphs import (
    Graph,
    complete_graph,
    component_graphs,
    cycle_graph,
    disjoint_union,
    is_k_connected,
    is_k_edge_connected,
    path_graph,
    star_graph,
)
from .predicates import is_dom_sat, is_dominated, is_semi_saturated
from .search import min_edges, verify_lemma_suite


class Check(NamedTuple):
    label: str
    passed: bool
    detail: str = ""


def _counterexample_check(label: str, bad: list) -> Check:
    return Check(label, not bad, f"{len(bad)} counterexamples" if bad else "")


class SuiteResult(NamedTuple):
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def default_pool() -> dict[str, Graph]:
    return {
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "K1,3": star_graph(3),
    }


def _hosts_with_edges() -> list[Graph]:
    """Every class with an edge on at most 6 vertices."""
    hosts = []
    for n in range(1, 7):
        hosts.extend(g for g in all_classes(n) if g.edge_count >= 1)
    return hosts


def _is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


def _vacuous_semi_sat(host: Graph, pattern: Graph) -> bool:
    # complete hosts smaller than the pattern have no non-edges to test
    return _is_complete(host) and host.n < pattern.n


def suite_facts() -> SuiteResult:
    """Transitivity and minimum-degree facts over all classes on at most 6 vertices."""
    pool = default_pool()
    hosts = _hosts_with_edges()

    dom = {name: [is_dominated(h, f).verdict for h in hosts] for name, f in pool.items()}
    ss = {name: [is_semi_saturated(h, f).verdict for h in hosts] for name, f in pool.items()}
    dsat = {name: [a and b for a, b in zip(dom[name], ss[name])] for name in pool}

    dom_pp = {
        (gn, fn): is_dominated(pool[gn], pool[fn]).verdict for gn in pool for fn in pool
    }
    ss_pp = {
        (gn, fn): is_semi_saturated(pool[gn], pool[fn]).verdict for gn in pool for fn in pool
    }
    dsat_pp = {k: dom_pp[k] and ss_pp[k] for k in dom_pp}

    checks = []

    def implication(label, middle_rel, host_rel, conclusion_rel):
        bad = []
        for fn in pool:
            for gn in pool:
                if not middle_rel[(gn, fn)]:
                    continue
                for i, h in enumerate(hosts):
                    if host_rel[gn][i] and not conclusion_rel[fn][i]:
                        bad.append((fn, gn, i))
        checks.append(_counterexample_check(label, bad))

    implication("transitivity-dominated", dom_pp, dom, dom)
    implication("transitivity-dominated-semi", dom_pp, ss, ss)
    implication("transitivity-dominated-domsat", dom_pp, dsat, dsat)
    implication("transitivity-domsat", dsat_pp, dsat, dsat)

    bad = []
    for fn, f in pool.items():
        for i, h in enumerate(hosts):
            if dom[fn][i] and h.min_degree() >= 1 and h.min_degree() < f.min_degree():
                bad.append((fn, i))
    checks.append(_counterexample_check("degree-dominated", bad))

    bad = []
    for fn, f in pool.items():
        for i, h in enumerate(hosts):
            if _vacuous_semi_sat(h, f):
                continue
            if ss[fn][i] and h.min_degree() < f.min_degree() - 1:
                bad.append((fn, i))
    checks.append(_counterexample_check("degree-semi-saturated", bad))

    return SuiteResult("facts", tuple(checks))


def _component_connectivity(f: Graph, edge_version: bool) -> int:
    """Largest k >= 0 such that every component passes the k test."""
    test = is_k_edge_connected if edge_version else is_k_connected
    k = 0
    while all(test(c, k + 1) for c in component_graphs(f)):
        k += 1
        if k > f.n:
            break
    return k


def suite_connectivity() -> SuiteResult:
    """Both connectivity lemmas over all classes on at most 6 vertices."""
    pool = default_pool()
    hosts = _hosts_with_edges()
    checks = []

    bad = []
    for fn, f in pool.items():
        k = _component_connectivity(f, edge_version=False)
        if k < 1:
            continue
        for h in hosts:
            if _vacuous_semi_sat(h, f):
                continue
            if is_semi_saturated(h, f).verdict and not is_k_connected(h, k - 1):
                bad.append((fn, h))
    checks.append(_counterexample_check("semi-saturated-vertex-connectivity", bad))

    bad = []
    for fn, f in pool.items():
        k = _component_connectivity(f, edge_version=True)
        if k < 1:
            continue
        for h in hosts:
            if is_dom_sat(h, f).verdict and not is_k_edge_connected(h, k - 1):
                bad.append((fn, h))
    checks.append(_counterexample_check("dom-sat-edge-connectivity", bad))

    return SuiteResult("connectivity", tuple(checks))


def suite_lemma_trees() -> SuiteResult:
    checks = []
    for j in (2, 3):
        rep = verify_lemma_suite(j)
        detail = f"{rep.trees_checked} trees, {rep.stars} stars"
        if rep.failures:
            detail += f"; failures: {rep.failures[:3]}"
        checks.append(Check(f"tree-lemma-j{j}", rep.passed, detail))
    return SuiteResult("lemma-trees", tuple(checks))


def suite_constructions() -> SuiteResult:
    """Certify every builder against its claimed predicate."""
    checks = []

    ok = True
    detail = ""
    for r in range(3, 7):
        for n in range(r, 21):
            g = dom_turan(n, r)
            if g.edge_count != dsat_clique_upper_edges(n, r):
                ok, detail = False, f"edge count off at (n={n}, r={r})"
                break
            if not is_dom_sat(g, complete_graph(r)).verdict:
                ok, detail = False, f"not dom-sat at (n={n}, r={r})"
                break
        if not ok:
            break
    checks.append(Check("dom-turan-certified", ok, detail))

    ok, detail = True, ""
    for r in (3, 4, 5, 6, 7):
        comp = path_component_size(r)
        for q in (1, 2):
            g = path_family(comp * q, r)
            if g.edge_count != comp * q - q or not is_dom_sat(g, path_graph(r)).verdict:
                ok, detail = False, f"failed at (r={r}, blocks={q})"
    checks.append(Check("path-family-certified", ok, detail))

    ok, detail = True, ""
    for r in (4, 5, 6, 7):
        g = cycle_gadget(None, r)
        if not is_dom_sat(g, cycle_graph(r)).verdict:
            ok, detail = False, f"failed at r={r}"
    checks.append(Check("cycle-gadget-certified", ok, detail))

    ok, detail = True, ""
    for r in (5, 6, 7):
        n, ell, p, loops = cycle_gadget_layout(None, r, r - 2)
        rep = is_semi_saturated(cycle_gadget(None, r, r - 2), cycle_graph(r))
        if rep.verdict:
            ok, detail = False, f"negative control passed at r={r}"
            continue
        u, v = rep.certificate
        corresponding = (
            u >= ell
            and v >= ell
            and (u - ell) % p == (v - ell) % p
            and (u - ell) // p != (v - ell) // p
        )
        if not corresponding:
            ok, detail = False, f"certificate {rep.certificate} not a corresponding pair at r={r}"
    checks.append(Check("cycle-negative-control", ok, detail))

    ok, detail = True, ""
    for r in (2, 3, 4, 5):
        for q in (1, 2):
            g = star_family((2 * r - 1) * q, r)
            if not is_dom_sat(g, star_graph(r)).verdict:
                ok, detail = False, f"failed at (r={r}, blocks={q})"
    checks.append(Check("star-family-certified", ok, detail))

    ok, detail = True, ""
    for s in range(4, 9):
        g_s, h_s = star_plus_pair(s)
        if h_s.edge_count != 2 * s - 3:
            ok, detail = False, f"H edge count off at s={s}"
            continue
        if not is_dom_sat(disjoint_union([h_s, h_s]), g_s).verdict:
            ok, detail = False, f"blocks not dom-sat at s={s}"
    checks.append(Check("star-plus-certified", ok, detail))

    return SuiteResult("constructions", tuple(checks))


def suite_formulas() -> SuiteResult:
    """Clique saturation formula against exhaustive search for n <= 8."""
    checks = []
    for r in (3, 4):
        ok, detail = True, ""
        for n in range(r, 9):
            got = min_edges(complete_graph(r), n, "saturated").min_edges
            want = sat_clique(n, r)
            if got != want:
                ok, detail = False, f"sat({n},K{r}) = {got}, formula {want}"
                break
        checks.append(Check(f"clique-formula-r{r}", ok, detail))
    return SuiteResult("formulas", tuple(checks))


SUITES = {
    "facts": suite_facts,
    "connectivity": suite_connectivity,
    "lemma-trees": suite_lemma_trees,
    "constructions": suite_constructions,
    "formulas": suite_formulas,
}

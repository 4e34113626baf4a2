"""Property batteries that tie the theory together.

Each suite checks one cluster of facts over exhaustive desk-scale
universes and returns a structured report; the command-line `verify`
subcommand and the acceptance tests both run these.  The tree-witness
lemma lives here too, beside the suite that checks it.

Quantification note: hosts range over graphs with at least one edge
(the theory's blanket assumption).  Semi-saturation-based facts exempt
complete hosts smaller than the pattern, which are vacuously
semi-saturated and degenerate for degree or connectivity conclusions.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .bounds import dsat_clique_upper_edges, sat_clique
from .constructions import (
    bridge_family,
    bridge_pair_order,
    cycle_gadget,
    cycle_gadget_layout,
    dom_turan,
    neighborhood_family,
    path_component_size,
    path_family,
    star_family,
    star_plus_pair,
    turan,
)
from .embed import _search
from .enumeration import all_classes, enumerate_trees
from .graph6 import graph6_encode
from .graphs import (
    Graph,
    bridges,
    complete_graph,
    component_graphs,
    cycle_graph,
    disjoint_union,
    is_k_connected,
    is_k_edge_connected,
    is_star,
    is_tree,
    path_graph,
    star_graph,
)
from .predicates import is_dom_sat, is_dominated, is_saturated, is_semi_saturated
from .search import min_edges


class Check(NamedTuple):
    label: str
    passed: bool
    detail: str = ""


def _check(label: str, failures: list[str]) -> Check:
    """Pass with no counterexample; otherwise count them and name the first."""
    if failures:
        return Check(label, False, f"{len(failures)} counterexamples, first: {failures[0]}")
    return Check(label, True)


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


def _vacuous_semi_sat(host: Graph, pattern: Graph) -> bool:
    # complete hosts smaller than the pattern have no non-edges to test
    return host.n < pattern.n and not host.non_edges()


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

    def implication(label, middle_rel, host_rel, conclusion_rel):
        failures = []
        for fn in pool:
            for gn in pool:
                if not middle_rel[(gn, fn)]:
                    continue
                for i, h in enumerate(hosts):
                    if host_rel[gn][i] and not conclusion_rel[fn][i]:
                        failures.append(f"F={fn}, G={gn}, host {graph6_encode(h)}")
        return _check(label, failures)

    degree_dom, degree_ss = [], []
    for fn, f in pool.items():
        for i, h in enumerate(hosts):
            if dom[fn][i] and h.min_degree() >= 1 and h.min_degree() < f.min_degree():
                degree_dom.append(f"F={fn}, host {graph6_encode(h)}")
            if ss[fn][i] and not _vacuous_semi_sat(h, f) and h.min_degree() < f.min_degree() - 1:
                degree_ss.append(f"F={fn}, host {graph6_encode(h)}")

    return SuiteResult(
        "facts",
        (
            implication("transitivity-dominated", dom_pp, dom, dom),
            implication("transitivity-dominated-semi", dom_pp, ss, ss),
            implication("transitivity-dominated-domsat", dom_pp, dsat, dsat),
            implication("transitivity-domsat", dsat_pp, dsat, dsat),
            _check("degree-dominated", degree_dom),
            _check("degree-semi-saturated", degree_ss),
        ),
    )


def _component_connectivity(f: Graph, test: Callable[[Graph, int], bool]) -> int:
    """Largest k >= 0 such that every component of f passes test(c, k)."""
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

    def lemma(label, test, holds):
        # every host where holds(h, f) is (k - 1)-connected in test's sense,
        # k being the connectivity that every component of f reaches
        failures = []
        for fn, f in pool.items():
            k = _component_connectivity(f, test)
            if k < 1:
                continue
            for h in hosts:
                if holds(h, f) and not test(h, k - 1):
                    failures.append(f"F={fn}, host {graph6_encode(h)}")
        return _check(label, failures)

    return SuiteResult(
        "connectivity",
        (
            lemma(
                "semi-saturated-vertex-connectivity",
                is_k_connected,
                lambda h, f: not _vacuous_semi_sat(h, f) and is_semi_saturated(h, f).verdict,
            ),
            lemma(
                "dom-sat-edge-connectivity",
                is_k_edge_connected,
                lambda h, f: is_dom_sat(h, f).verdict,
            ),
        ),
    )


# -- the tree witness lemma -------------------------------------------------


def _exists_path_from(g: Graph, alive: int, starts: int, j: int) -> bool:
    """Is there a simple path on exactly j vertices inside alive whose
    first vertex lies in starts?  Searched as an embedding of P_j."""
    if j <= 0:
        return False
    back = ((),) + tuple((i - 1,) for i in range(1, j))
    masks = (starts & alive,) + (alive,) * (j - 1)
    return _search(g.rows, tuple(range(j)), back, masks, [0] * j, 0, 0)


def tree_witness_ok(t: Graph, j: int, u: int, v: int) -> bool:
    """Does the pair (u, v) satisfy the tree lemma for t and j?

    u, v distinct non-adjacent vertices of t (any other pair is refused),
    and t-u-v has no j-vertex path with an endpoint in N(u) | N(v).
    """
    if any(type(x) is not int or not 0 <= x < t.n for x in (u, v)):
        return False
    if u == v or t.has_edge(u, v):
        return False
    alive = t.vertex_mask & ~(1 << u) & ~(1 << v)
    starts = (t.rows[u] | t.rows[v]) & alive
    return not _exists_path_from(t, alive, starts, j)


def lemma_tree_witness(t: Graph, j: int):
    """For a tree on 3 <= n < 3j vertices: "star", or a verified pair.

    The returned pair (u, v) is distinct, non-adjacent, and t-u-v has no
    j-vertex path with an endpoint in N(u) | N(v); found by brute force
    over all non-adjacent pairs with exhaustive path checking.
    """
    if not is_tree(t):
        raise ValueError("input is not a tree")
    if not 3 <= t.n < 3 * j:
        raise ValueError(f"tree order {t.n} outside the lemma range 3 <= n < {3 * j}")
    if is_star(t):
        return "star"
    for u, v in t.non_edges():
        if tree_witness_ok(t, j, u, v):
            return (u, v)
    raise RuntimeError("no witness pair found; the tree lemma should guarantee one")


def _recheck_pair(t: Graph, j: int, u: int, v: int) -> bool:
    """tree_witness_ok(t, j, u, v) by a plain walk over simple paths, so a
    pair is rechecked by code other than the search that chose it."""
    rest = [w for w in range(t.n) if w not in (u, v)]

    def extends(path: list[int]) -> bool:
        return len(path) == j or any(
            extends(path + [w]) for w in rest if w not in path and t.has_edge(path[-1], w)
        )

    starts = [w for w in rest if t.has_edge(u, w) or t.has_edge(v, w)]
    return u != v and not t.has_edge(u, v) and not any(extends([w]) for w in starts)


def suite_lemma_trees() -> SuiteResult:
    """The tree-witness lemma over every tree with 3 <= n < 3j vertices,
    for j = 2 and 3: every non-star tree must yield a pair that a plain
    walk over simple paths re-verifies; stars are counted separately."""
    checks = []
    for j in (2, 3):
        checked = stars = 0
        failures = []
        for order in range(3, 3 * j):
            for tree in enumerate_trees(order):
                checked += 1
                try:
                    witness = lemma_tree_witness(tree, j)
                except (ValueError, RuntimeError) as exc:
                    failures.append(f"{graph6_encode(tree)}: {exc}")
                    continue
                if witness == "star":
                    stars += 1
                elif not _recheck_pair(tree, j, *witness):
                    failures.append(f"{graph6_encode(tree)}: pair {witness} failed recheck")
        detail = f"{checked} trees, {stars} stars"
        if failures:
            detail += f"; failures: {tuple(failures[:3])}"
        checks.append(Check(f"tree-lemma-j{j}", not failures, detail))
    return SuiteResult("lemma-trees", tuple(checks))


def suite_constructions() -> SuiteResult:
    """Certify every family with a claim in the CLI's family table
    (dom-turan, path, cycle-gadget, star, star-plus, turan, bridge and
    neighborhood) against it, and run the cycle gadget's negative
    control: overlong loops must break semi-saturation."""
    turan_dom = []
    for r in range(3, 7):
        for n in range(r, 21):
            g = dom_turan(n, r)
            if g.edge_count != dsat_clique_upper_edges(n, r):
                turan_dom.append(f"edge count off at (n={n}, r={r})")
            elif not is_dom_sat(g, complete_graph(r)).verdict:
                turan_dom.append(f"not dom-sat at (n={n}, r={r})")

    path = []
    for r in (3, 4, 5, 6, 7):
        comp = path_component_size(r)
        for q in (1, 2):
            g = path_family(comp * q, r)
            if g.edge_count != comp * q - q or not is_dom_sat(g, path_graph(r)).verdict:
                path.append(f"failed at (r={r}, blocks={q})")

    cycle = [
        f"failed at r={r}"
        for r in (4, 5, 6, 7)
        if not is_dom_sat(cycle_gadget(None, r), cycle_graph(r)).verdict
    ]

    negative = []
    for r in (5, 6, 7):
        n, ell, p, loops = cycle_gadget_layout(None, r, r - 2)
        rep = is_semi_saturated(cycle_gadget(None, r, r - 2), cycle_graph(r))
        if rep.verdict:
            negative.append(f"negative control passed at r={r}")
            continue
        u, v = rep.certificate
        corresponding = (
            u >= ell
            and v >= ell
            and (u - ell) % p == (v - ell) % p
            and (u - ell) // p != (v - ell) // p
        )
        if not corresponding:
            negative.append(f"certificate {rep.certificate} not a corresponding pair at r={r}")

    star = [
        f"failed at (r={r}, blocks={q})"
        for r in (2, 3, 4, 5)
        for q in (1, 2)
        if not is_dom_sat(star_family((2 * r - 1) * q, r), star_graph(r)).verdict
    ]

    star_plus = []
    for s in range(4, 9):
        g_s, h_s = star_plus_pair(s)
        if h_s.edge_count != 2 * s - 3:
            star_plus.append(f"H edge count off at s={s}")
        elif not is_dom_sat(disjoint_union([h_s, h_s]), g_s).verdict:
            star_plus.append(f"blocks not dom-sat at s={s}")

    turan_sat = [
        f"not saturated at (n={n}, r={r})"
        for r in range(1, 6)
        for n in range(r, 13)
        if not is_saturated(turan(n, r), complete_graph(r + 1)).verdict
    ]

    # a pattern with a bridge meets both forms: the clique pairs at the
    # least multiple of 2r from |f| on, when they certify, and the
    # clique blocks at |f| + 1
    patterns = [f for order in range(2, 6) for f in all_classes(order) if f.edge_count]
    bridge = []
    for f in filter(bridges, patterns):
        pair = 2 * bridge_pair_order(f)
        for n in sorted({-(-f.n // pair) * pair, f.n + 1}):
            if not is_dom_sat(bridge_family(f, n), f).verdict:
                bridge.append(f"not dom-sat for {graph6_encode(f)} at n={n}")

    # an even and an odd outside count, so the matched variant pads once
    neighborhood = [
        f"not dom-sat for {graph6_encode(f)} at n={n}"
        for f in patterns
        for n in (f.n + 2, f.n + 3)
        if not is_dom_sat(neighborhood_family(f, n, pad=True), f).verdict
    ]

    return SuiteResult(
        "constructions",
        (
            _check("dom-turan-certified", turan_dom),
            _check("path-family-certified", path),
            _check("cycle-gadget-certified", cycle),
            _check("cycle-negative-control", negative),
            _check("star-family-certified", star),
            _check("star-plus-certified", star_plus),
            _check("turan-saturated", turan_sat),
            _check("bridge-family-certified", bridge),
            _check("neighborhood-family-certified", neighborhood),
        ),
    )


def suite_formulas() -> SuiteResult:
    """Clique saturation formula against exhaustive search for n <= 8."""
    checks = []
    for r in (3, 4):
        failures = []
        for n in range(r, 9):
            got = min_edges(complete_graph(r), n, "saturated").min_edges
            if got != sat_clique(n, r):
                failures.append(f"sat({n},K{r}) = {got}, formula {sat_clique(n, r)}")
        checks.append(_check(f"clique-formula-r{r}", failures))
    return SuiteResult("formulas", tuple(checks))


SUITES = {
    "facts": suite_facts,
    "connectivity": suite_connectivity,
    "lemma-trees": suite_lemma_trees,
    "constructions": suite_constructions,
    "formulas": suite_formulas,
}

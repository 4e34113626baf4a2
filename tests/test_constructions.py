import hashlib
from fractions import Fraction

import pytest

from domsat import (
    ConstructionError,
    are_isomorphic,
    bridge_family,
    bridge_pair_order,
    complete_graph,
    complete_multipartite,
    components,
    cycle_gadget,
    cycle_gadget_layout,
    cycle_graph,
    disjoint_union,
    dom_turan,
    dsat_clique_upper_edges,
    from_edges,
    graph6_encode,
    is_dom_sat,
    is_saturated,
    is_semi_saturated,
    min_edges,
    near_matching,
    neighborhood_family,
    neighborhood_scan,
    path_component_size,
    path_family,
    path_graph,
    star_family,
    star_graph,
    star_plus_pair,
    structural_bounds,
    turan,
)


def test_near_matching():
    assert near_matching(4).edge_count == 2
    assert are_isomorphic(near_matching(3), complete_graph(3))
    m7 = near_matching(7)
    assert m7.n == 7 and m7.edge_count == 5
    assert are_isomorphic(near_matching(2), complete_graph(2))
    for k in range(2, 12):
        m = near_matching(k)
        assert m.min_degree() >= 1
        assert m.edge_count == (k + 1) // 2 + (k % 2)
    with pytest.raises(ConstructionError):
        near_matching(1)


def test_dom_turan():
    assert dom_turan(5, 3).edge_count == 6
    assert are_isomorphic(dom_turan(4, 4), complete_graph(4))
    for r in (3, 4, 5):
        for n in range(r, 16):
            assert dom_turan(n, r).edge_count == dsat_clique_upper_edges(n, r)
    assert is_dom_sat(dom_turan(12, 4), complete_graph(4)).verdict
    with pytest.raises(ConstructionError):
        dom_turan(3, 2)
    with pytest.raises(ConstructionError):
        dom_turan(2, 3)


def test_turan():
    t = turan(6, 2)
    assert t.edge_count == 9 and are_isomorphic(t, turan(6, 2))
    assert are_isomorphic(turan(5, 5), complete_graph(5))
    assert turan(7, 3).edge_count == 16
    for n, r in ((6, 2), (7, 3), (5, 5)):
        assert is_saturated(turan(n, r), complete_graph(r + 1)).verdict


def test_path_family():
    assert path_component_size(3) == 3
    assert path_component_size(4) == 4
    assert path_component_size(5) == 6
    assert path_component_size(6) == 7
    assert path_component_size(7) == 9
    g = path_family(12, 5)
    assert g.n == 12 and g.edge_count == 10 and len(components(g)) == 2
    assert is_dom_sat(path_family(3, 3), path_graph(3)).verdict
    assert is_dom_sat(path_family(8, 4), path_graph(4)).verdict
    with pytest.raises(ConstructionError):
        path_family(10, 5)
    padded = path_family(10, 5, pad=True)  # one P_6 and one P_10? no: P_6 + P_10 is 16
    assert padded.n == 10 and len(components(padded)) == 1
    assert is_dom_sat(padded, path_graph(5)).verdict


def test_cycle_gadget_layout():
    n, ell, p, loops = cycle_gadget_layout(9, 6)
    assert (n, ell, p, loops) == (9, 6, 3, 1)
    n, ell, p, loops = cycle_gadget_layout(None, 4)
    assert (ell, p, loops) == (4, 1, 2)
    with pytest.raises(ConstructionError):
        cycle_gadget_layout(7, 6)  # no room for a full loop
    with pytest.raises(ConstructionError):
        cycle_gadget_layout(9, 3)


def test_cycle_gadget_positive():
    assert is_dom_sat(cycle_gadget(9, 6), cycle_graph(6)).verdict
    for r in (4, 5, 6, 7):
        assert is_dom_sat(cycle_gadget(None, r), cycle_graph(r)).verdict


def test_cycle_gadget_negative_control():
    for r in (5, 6, 7):
        n, ell, p, loops = cycle_gadget_layout(None, r, r - 2)
        rep = is_semi_saturated(cycle_gadget(None, r, r - 2), cycle_graph(r))
        assert not rep.verdict
        u, v = rep.certificate
        assert u >= ell and v >= ell
        assert (u - ell) % p == (v - ell) % p
        assert (u - ell) // p != (v - ell) // p


def test_star_family():
    g = star_family(5, 3)
    assert g.edge_count == 6
    assert is_dom_sat(star_family(3, 2), path_graph(3)).verdict
    assert is_dom_sat(star_family(14, 4), star_graph(4)).verdict
    with pytest.raises(ConstructionError):
        star_family(6, 3)
    padded = star_family(7, 3, pad=True)
    assert padded.n == 7
    assert is_dom_sat(padded, star_graph(3)).verdict


def test_star_plus_pair():
    g4, h4 = star_plus_pair(4)
    assert are_isomorphic(g4, path_graph(4))
    assert h4.n == 6 and h4.edge_count == 5
    assert sorted(h4.degrees(), reverse=True) == [3, 3, 1, 1, 1, 1]
    for s in range(4, 9):
        g_s, h_s = star_plus_pair(s)
        assert g_s.n == s and g_s.edge_count == s - 1
        assert h_s.n == 2 * s - 2 and h_s.edge_count == 2 * s - 3
        assert is_dom_sat(disjoint_union([h_s, h_s]), g_s).verdict
    with pytest.raises(ConstructionError):
        star_plus_pair(3)


def test_bridge_family():
    assert bridge_pair_order(path_graph(4)) == 2
    assert bridge_pair_order(cycle_graph(5)) is None
    g = bridge_family(path_graph(4), 8)
    assert is_dom_sat(g, path_graph(4)).verdict
    g = bridge_family(path_graph(3), 8)
    assert is_dom_sat(g, path_graph(3)).verdict
    # non-divisible order falls back to clique blocks with one oversized
    g = bridge_family(path_graph(4), 9)
    assert sorted(m.bit_count() for m in components(g)) == [4, 5]
    assert is_dom_sat(g, path_graph(4)).verdict
    # the paired witness fails for stars, so clique blocks come back
    g = bridge_family(star_graph(3), 12)
    assert all(m.bit_count() == 4 for m in components(g))
    assert is_dom_sat(g, star_graph(3)).verdict
    with pytest.raises(ConstructionError):
        bridge_family(cycle_graph(5), 10)


def test_neighborhood_family():
    k, edge = neighborhood_scan(complete_graph(3))
    assert k == 1
    g = neighborhood_family(complete_graph(3), 11)  # matched variant, even outside
    assert is_dom_sat(g, complete_graph(3)).verdict
    g = neighborhood_family(path_graph(4), 10)
    assert is_dom_sat(g, path_graph(4)).verdict
    g = neighborhood_family(star_graph(3), 10)
    assert is_dom_sat(g, star_graph(3)).verdict
    # K_3 has min degree 2 = k+1: odd outside count needs the pad
    with pytest.raises(ConstructionError):
        neighborhood_family(complete_graph(3), 10)
    padded = neighborhood_family(complete_graph(3), 10, pad=True)
    assert is_dom_sat(padded, complete_graph(3)).verdict


def test_neighborhood_family_ignores_isolated_pattern_vertices():
    # K_3 + K_1 has minimum degree 0, but its least positive degree is
    # 2 = k+1: the matched variant certifies, as for K_3, and the bound
    # is K_3's 3/2
    f = from_edges(4, [(0, 1), (0, 2), (1, 2)])
    for n in (6, 8):
        assert is_dom_sat(neighborhood_family(f, n), f).verdict
    with pytest.raises(ConstructionError):
        neighborhood_family(f, 7)
    assert is_dom_sat(neighborhood_family(f, 7, pad=True), f).verdict
    by_source = {b.source: b.value for b in structural_bounds(f).upper}
    assert by_source["neighborhood"] == Fraction(3, 2)


def test_neighborhood_density_tracks_clique_witness():
    # matched variant for K_3 has the same asymptotic density as the
    # clique-with-near-matching witness: 3/2
    g1 = neighborhood_family(complete_graph(3), 23, pad=True)
    g2 = neighborhood_family(complete_graph(3), 43, pad=True)
    assert (g2.edge_count - g1.edge_count) * 2 == 3 * (g2.n - g1.n)


def _exact_search_rows():
    """(label, graph, pattern, exact) for every n <= 8 each builder accepts;
    exact marks the path family at multiples of its component size."""
    rows = []
    for r in (3, 4):
        rows += [(f"dom_turan({n},{r})", dom_turan(n, r), complete_graph(r), False)
                 for n in range(r, 9)]
    for r in (3, 4, 5):
        comp = path_component_size(r)
        rows += [(f"path_family({n},{r})", path_family(n, r, pad=True), path_graph(r),
                  n % comp == 0) for n in range(comp, 9)]
    for r in (2, 3):
        rows += [(f"star_family({n},{r})", star_family(n, r, pad=True), star_graph(r), False)
                 for n in range(2 * r - 1, 9)]
    return rows


def test_constructions_bound_exact_search():
    # every family is an upper bound on the dom-sat minimum, and the path
    # family is extremal when its components tile the vertex set
    rows = _exact_search_rows()
    assert len(rows) == 35
    for label, g, pattern, exact in rows:
        least = min_edges(pattern, g.n, "dom-sat").min_edges
        assert g.edge_count >= least, label
        if exact:
            assert g.edge_count == least, label


# patterns with a bridge beyond the pool's P3, P4 and K1,3
_BRIDGED = {
    "P5": path_graph(5),
    "K1,4": star_graph(4),
    "paw": from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "bull": from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    "two-K3": from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
}

FAMILY_OUTPUTS_DIGEST = "4b3a752fb90b7b90086ea8249e6b17f06f5815714c2c7ae40fc9bb7fe1703850"


def _family_calls(pool):
    patterns = {**pool, **_BRIDGED}
    for pad in (False, True):
        for n in range(40):
            for r in range(10):
                yield f"path_family({n},{r},{pad})", lambda: path_family(n, r, pad)
                yield f"star_family({n},{r},{pad})", lambda: star_family(n, r, pad)
    for name, f in patterns.items():
        for n in range(40):
            yield f"bridge_family({name},{n})", lambda: bridge_family(f, n)
            for pad in (False, True):
                yield (f"neighborhood_family({name},{n},{pad})",
                       lambda: neighborhood_family(f, n, pad))
    for n in range(25):
        for r in range(n + 2):
            yield f"turan({n},{r})", lambda: turan(n, r)
    for n, r in ((65, 1), (70, 3), (100, 4)):
        yield f"turan({n},{r})", lambda: turan(n, r)
    for a in range(1, 6):
        for b in range(1, 6):
            for c in range(4):
                sizes = [a, b] + [c + 1] * c
                yield f"complete_multipartite({sizes})", lambda: complete_multipartite(sizes)


def test_family_outputs_digest(pool):
    # pins every builder's labels, including the padded and odd-remainder
    # cases, and every rejection's type and message
    h = hashlib.sha256()
    for call, build in _family_calls(pool):
        try:
            out = graph6_encode(build())
        except Exception as exc:
            out = f"{type(exc).__name__}: {exc}"
        h.update(f"{call} -> {out}\n".encode())
    assert h.hexdigest() == FAMILY_OUTPUTS_DIGEST

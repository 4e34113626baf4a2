from fractions import Fraction
from itertools import combinations

import pytest

from domsat import (
    all_classes,
    complete_graph,
    cycle_gadget,
    cycle_graph,
    dom_turan,
    dsat_clique_density,
    dsat_clique_upper_edges,
    known_density,
    path_component_size,
    path_graph,
    sat_clique,
    star_density_candidates,
    star_family,
    star_graph,
    star_plus_pair,
    structural_bounds,
)
from domsat.bounds import _cut_pair_bound


def test_sat_clique_values():
    assert sat_clique(5, 3) == 4
    assert sat_clique(5, 4) == 7
    for r in (3, 4, 5):
        # at n = r the formula collapses to one edge short of complete
        assert sat_clique(r, r) == r * (r - 1) // 2 - 1
    with pytest.raises(ValueError):
        sat_clique(3, 2)
    with pytest.raises(ValueError):
        sat_clique(2, 3)


def test_dsat_clique_density():
    assert dsat_clique_density(3) == Fraction(3, 2)
    assert dsat_clique_density(4) == Fraction(5, 2)
    with pytest.raises(ValueError):
        dsat_clique_density(2)


def test_upper_edges_formula():
    assert dsat_clique_upper_edges(5, 3) == 6
    assert dsat_clique_upper_edges(4, 3) == 6  # an upper bound only: exact value is 5
    for r in (3, 4, 5, 6):
        for n in range(r, 22):
            assert dsat_clique_upper_edges(n, r) == dom_turan(n, r).edge_count


def test_upper_edges_density_approaches_clique_density():
    # the witness overshoots the limit by at most a constant edge count
    for r in (3, 4, 6):
        target = dsat_clique_density(r)
        gaps = [
            abs(Fraction(dsat_clique_upper_edges(n, r), n) - target)
            for n in (10**3, 10**6)
        ]
        assert gaps[1] <= gaps[0]
        assert gaps[1] <= Fraction(20, 10**6)


def test_known_density_values():
    assert known_density("path", r=5) == Fraction(5, 6)
    assert known_density("path", r=3) == Fraction(2, 3)
    assert known_density("path", r=4) == Fraction(3, 4)
    assert known_density("cycle", r=6) == (Fraction(1), Fraction(4, 3))
    assert known_density("cycle", r=4) == (Fraction(1), Fraction(2))
    lo, hi = known_density("star", r=3)
    assert lo == Fraction(1) and hi == Fraction(6, 5)
    assert known_density("star_plus", s=7) == (Fraction(6, 7), Fraction(11, 12))
    assert known_density("kt_path_sat", r=5) == Fraction(5, 6)
    assert known_density("kt_path_sat", r=3) == Fraction(1, 2)
    # P_4-saturated minima 2, 4, 3, 5, 4, 6 for n = 4..9: n/2 or (n+3)/2
    assert known_density("kt_path_sat", r=4) == Fraction(1, 2)
    assert known_density("kt_path_sat", r=6) == Fraction(9, 10)
    with pytest.raises(ValueError):
        known_density("petersen", r=3)
    with pytest.raises(ValueError, match="'r'"):
        known_density("path")
    with pytest.raises(ValueError, match="'s'"):
        known_density("star_plus", r=5)


def test_known_density_matches_construction_growth():
    # cycle gadget: edges grow by (r-2) per (r-3) vertices
    for r in (4, 5, 6, 7):
        g1 = cycle_gadget(None, r)
        n2 = g1.n + 3 * (r - 3)
        g2 = cycle_gadget(n2, r)
        slope = Fraction(g2.edge_count - g1.edge_count, g2.n - g1.n)
        assert slope == known_density("cycle", r=r)[1]
    # star blocks have exactly the interval's upper density
    for r in (2, 3, 4, 5):
        block = star_family(2 * r - 1, r)
        assert Fraction(block.edge_count, block.n) == known_density("star", r=r)[1]
    # path components: density (c-1)/c equals the exact value
    for r in (3, 4, 5, 6, 7):
        c = path_component_size(r)
        assert Fraction(c - 1, c) == known_density("path", r=r)
    # the double-star block matches the star-plus upper value
    for s in (4, 6, 8):
        _, h_s = star_plus_pair(s)
        assert Fraction(h_s.edge_count, h_s.n) == known_density("star_plus", s=s)[1]


def test_star_candidates_disagree():
    cands = star_density_candidates(3)
    assert cands["construction-derived"] == Fraction(6, 5)
    assert cands["stated"] == Fraction(29, 20)
    assert cands["stated"] > cands["construction-derived"]


def test_structural_bounds_p4():
    bs = structural_bounds(path_graph(4))
    assert bs.best_lower == Fraction(1, 2)
    by_source = {b.source: b.value for b in bs.upper}
    assert by_source["clique-upper"] == Fraction(5, 2)
    assert by_source["bridge-blocks"] == Fraction(3, 2)
    assert by_source["bridge-pairs"] == Fraction(3, 4)
    assert by_source["neighborhood"] == Fraction(1)
    assert bs.best_upper == Fraction(3, 4)
    assert bs.consistent


def test_structural_bounds_k4():
    bs = structural_bounds(complete_graph(4))
    assert bs.best_lower == Fraction(3, 2)
    assert bs.best_upper == Fraction(5, 2)
    assert not any(b.source.startswith("bridge") for b in bs.upper)


def test_structural_bounds_c5():
    bs = structural_bounds(cycle_graph(5))
    assert bs.best_lower == Fraction(1)
    by_source = {b.source: b.value for b in bs.upper}
    assert by_source["clique-upper"] == Fraction(7, 2)
    assert not any(b.source.startswith("bridge") for b in bs.upper)
    assert bs.consistent


def test_neighborhood_bound_is_least_over_edges():
    # k + 1/2 [delta = k + 1, or k >= 1 and the least positive degree is
    # k + 1], minimised over every edge uw with |N(u) | N(w)| = k + 2
    for n in range(2, 7):
        for f in all_classes(n):
            if not f.edge_count:
                continue
            delta = f.min_degree()
            least = min(d for d in f.degrees() if d)
            want = min(
                Fraction(k) + (Fraction(1, 2) if delta == k + 1 or k >= 1 and least == k + 1 else 0)
                for k in ((f.rows[u] | f.rows[w]).bit_count() - 2 for u, w in f.edges())
            )
            by_source = {b.source: b.value for b in structural_bounds(f).upper}
            assert by_source["neighborhood"] == want


def _cut_pair_by_splits(f):
    """k + (r-1)/2 minimised by trying every split of every vertex set S,
    |S| = r <= 6, into U, W with exactly one U-W edge."""
    best = None
    for r in range(2, min(6, f.n) + 1):
        for subset in combinations(range(f.n), r):
            s_mask = sum(1 << v for v in subset)
            nbrs = 0
            for v in subset:
                nbrs |= f.rows[v]
            for split in range(1 << (r - 1)):  # subset[0] stays in U
                u_mask = 1 << subset[0]
                for i in range(1, r):
                    if split >> (i - 1) & 1:
                        u_mask |= 1 << subset[i]
                w_mask = s_mask & ~u_mask
                cross = sum((f.rows[v] & w_mask).bit_count() for v in subset if u_mask >> v & 1)
                if w_mask and cross == 1:
                    value = Fraction((nbrs & ~s_mask).bit_count()) + Fraction(r - 1, 2)
                    best = value if best is None else min(best, value)
    return best


def test_cut_pair_bound_matches_split_scan():
    patterns = [f for n in range(2, 7) for f in all_classes(n) if f.edge_count]
    patterns += [path_graph(9), complete_graph(8), cycle_gadget(None, 5), dom_turan(10, 4)]
    for f in patterns:
        assert _cut_pair_bound(f) == _cut_pair_by_splits(f), f


def test_structural_bounds_star_records_both_candidates():
    bs = structural_bounds(star_graph(3))
    by_source = {b.source: b.value for b in bs.upper}
    assert by_source["star-family-construction"] == Fraction(6, 5)
    assert by_source["star-family-stated"] == Fraction(29, 20)
    assert any("candidates disagree" in note for note in bs.notes)
    # the stated pair witness is not dominated for stars; order 4 certifies
    assert by_source["bridge-pairs"] == Fraction(13, 8)
    assert any("fails its predicate" in note for note in bs.notes)
    assert bs.best_upper == Fraction(6, 5)


def test_min_degree_lower_needs_two_edges_per_component():
    # K_2 component: the minimum-degree lower bound is inapplicable
    bs = structural_bounds(complete_graph(2))
    assert not bs.lower
    bs = structural_bounds(path_graph(3))
    assert bs.best_lower == Fraction(1, 2)


def test_bound_set_json_round_trip():
    def frac(num, den, source):
        return {"num": num, "den": den, "source": source}

    assert structural_bounds(star_graph(3)).to_json_dict() == {
        "schema": "domsat/1",
        "lower": [frac(1, 2, "min-degree-half")],
        "upper": [
            frac(5, 2, "clique-upper"),
            frac(3, 2, "bridge-blocks"),
            frac(13, 8, "bridge-pairs"),
            frac(2, 1, "neighborhood"),
            frac(3, 2, "cut-pair"),
            frac(6, 5, "star-family-construction"),
            frac(29, 20, "star-family-stated"),
        ],
        "best_lower": {"num": 1, "den": 2},
        "best_upper": {"num": 6, "den": 5},
        "consistent": True,
        "notes": [
            "bridge-pairs witness with clique order 3 fails its predicate for "
            "this pattern; smallest certifying order is 4",
            "star-family upper candidates disagree: the stated constant exceeds "
            "the witness density; both are recorded",
        ],
    }


def test_lower_bound_versus_searched_minimums():
    # the asymptotic lower bound can only be undershot by the one-isolated-
    # vertex allowance: min_edges >= (n-1) * delta / 2
    from domsat import min_edges

    for f in (complete_graph(3), cycle_graph(4), complete_graph(4)):
        lo = structural_bounds(f).best_lower
        assert lo == Fraction(f.min_degree(), 2)
        for n in range(f.n, 7):
            density = Fraction(min_edges(f, n, "dom-sat").min_edges, n)
            assert density >= lo - Fraction(f.min_degree(), 2 * n)

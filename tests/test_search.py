from fractions import Fraction
from itertools import islice

import pytest

from domsat import (
    SearchCapError,
    are_isomorphic,
    complete_graph,
    density_profile,
    graph6_decode,
    graph6_encode,
    is_dominated,
    min_edges,
    path_graph,
    run_predicate,
    star_graph,
)
from domsat import enumeration, search
from domsat.enumeration import levels

K2 = complete_graph(2)
K3 = complete_graph(3)


def test_dom_sat_minimums():
    r = min_edges(K3, 4, "dom-sat")
    assert r.min_edges == 5
    assert len(r.witnesses) == 1
    assert are_isomorphic(graph6_decode(r.witnesses[0]), complete_graph(4).remove_edge(0, 1))
    assert min_edges(K3, 5, "dom-sat").min_edges == 6
    assert min_edges(path_graph(3), 6, "dom-sat").min_edges == 4
    for n in range(2, 8):
        assert min_edges(K2, n, "dom-sat").min_edges == 1


def test_p4_minima_need_not_grow_with_n():
    # sat(n, P4) is n/2 or (n+3)/2 by parity (Kaszonyi and Tuza 1986)
    rows = {
        predicate: [min_edges(path_graph(4), n, predicate).min_edges for n in range(4, 9)]
        for predicate in ("saturated", "semi-saturated")
    }
    assert rows == {"saturated": [2, 4, 3, 5, 4], "semi-saturated": [2, 3, 3, 5, 4]}


def test_saturated_minimum_matches_formula():
    r = min_edges(K3, 5, "saturated")
    assert r.min_edges == 4
    assert len(r.witnesses) == 1
    assert are_isomorphic(graph6_decode(r.witnesses[0]), star_graph(4))


def test_witnesses_reverify_from_serialization():
    r = min_edges(K3, 5, "dom-sat")
    for g6 in r.witnesses:
        g = graph6_decode(g6)
        assert g.n == 5 and g.edge_count == r.min_edges
        assert run_predicate("dom-sat", g, K3).verdict


def test_preconditions():
    with pytest.raises(SearchCapError):
        min_edges(K3, 30, "dom-sat")
    with pytest.raises(ValueError):
        min_edges(K3, 2, "dom-sat")
    with pytest.raises(ValueError):
        min_edges(K3, 5, "dominated")
    assert min_edges(K2, 10, "dom-sat", max_n=10).min_edges == 1  # raised cap honored


def test_density_profile_checks_n_max_before_sweeping(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a level was swept")

    monkeypatch.setattr(search, "min_edges", no_sweep)
    with pytest.raises(ValueError, match="below pattern order"):
        density_profile(K3, 2)
    with pytest.raises(SearchCapError):
        density_profile(K3, 10)
    with pytest.raises(ValueError, match="enumeration supports"):
        density_profile(K3, 11, max_n=20)


@pytest.mark.parametrize("predicate", ["saturated", "semi-saturated", "dom-sat", "weakly-saturated"])
@pytest.mark.parametrize("pattern", ["K3", "P3", "P4", "K1,3"])
def test_pruning_is_sound(pattern, predicate, pool):
    # reference: the same level sweep with no degree floor and no sweep start
    f = pool[pattern]
    for n in range(f.n, 7):
        for m, level in islice(enumerate(levels(n)), 1 if predicate == "dom-sat" else 0, None):
            passing = [g for g in level if run_predicate(predicate, g, f).verdict]
            if passing:
                break
        res = min_edges(f, n, predicate)
        assert (res.min_edges, res.witnesses) == (m, tuple(sorted(map(graph6_encode, passing))))


def test_witness_degree_facts(pool):
    # dominated witnesses with positive min degree respect the pattern floor
    for name in ("K3", "P3", "P4", "K1,3"):
        f = pool[name]
        for n in range(f.n, 7):
            res = min_edges(f, n, "dom-sat")
            for g6 in res.witnesses:
                g = graph6_decode(g6)
                assert is_dominated(g, f).verdict
                if g.min_degree() >= 1:
                    assert g.min_degree() >= f.min_degree()


def test_witness_sets_match_naive_oracle(pool):
    from domsat.canon import canonical_graph6
    from domsat.oracle import naive_min_edges

    # K2's minima are 0 except for dom-sat, whose hosts have an edge
    cases = [(K2, 5), (pool["K3"], 5), (pool["P3"], 6), (pool["P4"], 5)]
    for predicate in search.SEARCH_PREDICATES:
        for f, n_top in cases:
            for n in range(f.n, n_top + 1):
                fast = min_edges(f, n, predicate)
                naive_m, naive_wits = naive_min_edges(f, n, predicate)
                assert fast.min_edges == naive_m
                assert {canonical_graph6(w) for w in naive_wits} == set(fast.witnesses)


def test_domination_monotonicity(pool):
    # K_3 is P_3-dominated, K_4 is K_3-dominated: minimums are ordered
    pairs = [("P3", "K3"), ("K3", "K4"), ("P3", "P4")]
    for small, large in pairs:
        f, g = pool[small], pool[large]
        assert is_dominated(g, f).verdict
        for n in range(g.n, 7):
            assert (
                min_edges(f, n, "dom-sat").min_edges
                <= min_edges(g, n, "dom-sat").min_edges
            )


def test_min_edges_makes_one_walk_up_to_its_minimum(monkeypatch):
    pulled = []

    def counted_walk(n):
        for level in levels(n):
            pulled.append(len(level))
            yield level

    monkeypatch.setattr(search, "levels", counted_walk)
    res = min_edges(K3, 6, "dom-sat")
    assert res.min_edges == 8
    assert len(pulled) == res.min_edges + 1


def test_enumeration_keeps_no_module_state():
    min_edges(K3, 6, "dom-sat")
    held = [name for name, value in vars(enumeration).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")]
    assert held == []


def test_search_result_json_round_trip():
    assert min_edges(K3, 5, "dom-sat").to_json_dict() == {
        "schema": "domsat/1",
        "pattern": "Bw",
        "n": 5,
        "predicate": "dom-sat",
        "min_edges": 6,
        "witnesses": ["D`{"],
        "graphs_examined": 18,
    }


def test_density_profile():
    prof = density_profile(K2, 5)
    assert [m for _, m, _ in prof.rows] == [1, 1, 1, 1]
    prof = density_profile(K3, 7)
    assert [n for n, _, _ in prof.rows] == [3, 4, 5, 6, 7]
    assert prof.rows[0][1] == 3 and prof.rows[2][1] == 6
    assert prof.densities()[0] == Fraction(1)
    trend = prof.trend()
    assert trend["min_edges_non_decreasing"]
    assert prof.to_json_dict() == {
        "schema": "domsat/1",
        "pattern": "Bw",
        "predicate": "dom-sat",
        "rows": [
            {"n": 3, "min_edges": 3, "density": {"num": 1, "den": 1}},
            {"n": 4, "min_edges": 5, "density": {"num": 5, "den": 4}},
            {"n": 5, "min_edges": 6, "density": {"num": 6, "den": 5}},
            {"n": 6, "min_edges": 8, "density": {"num": 4, "den": 3}},
            {"n": 7, "min_edges": 9, "density": {"num": 9, "den": 7}},
        ],
        "trend": {
            "min_edges_non_decreasing": True,
            "density_non_decreasing": False,
            "first_density": {"num": 1, "den": 1},
            "last_density": {"num": 9, "den": 7},
        },
    }


def test_lemma_suite_reports():
    from domsat.verify import suite_lemma_trees

    assert suite_lemma_trees() == (
        "lemma-trees",
        (
            ("tree-lemma-j2", True, "6 trees, 3 stars"),
            ("tree-lemma-j3", True, "46 trees, 6 stars"),
        ),
    )


def test_lemma_suite_recheck_catches_a_broken_path_search(monkeypatch):
    # with every path search answering "no path", the first non-edge of
    # each tree is chosen; the recheck walks paths by itself and refuses it
    from domsat import verify

    monkeypatch.setattr(verify, "_exists_path_from", lambda *args: False)
    checks = verify.suite_lemma_trees().checks
    assert not any(check.passed for check in checks)
    assert all("failed recheck" in check.detail for check in checks)

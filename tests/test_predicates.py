import hashlib
import json
import random
from itertools import permutations

import pytest
from hypothesis import given, settings

from conftest import ANCHOR_PATTERNS, graphs
from domsat import (
    all_classes,
    complete_graph,
    copy_through_edge,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    is_dom_sat,
    is_dominated,
    is_free,
    is_saturated,
    is_semi_saturated,
    is_weakly_saturated,
    lemma_tree_witness,
    PredicateReport,
    path_graph,
    recheck_certificate,
    run_predicate,
    star_graph,
    tree_witness_ok,
    turan,
)
from domsat import embed, predicates
from domsat.oracle import decide
from domsat.predicates import PREDICATES

K3 = complete_graph(3)


def test_edgeless_patterns_rejected():
    for fn in (is_free, is_semi_saturated, is_saturated, is_dominated, is_dom_sat, is_weakly_saturated):
        with pytest.raises(ValueError):
            fn(complete_graph(3), empty_graph(2))


def test_free():
    assert is_free(cycle_graph(4), K3).verdict
    rep = is_free(complete_graph(4), K3)
    assert not rep.verdict and rep.certificate_kind == "embedding"
    assert is_free(turan(6, 2), K3).verdict


def test_semi_saturated():
    assert is_semi_saturated(complete_graph(5), complete_graph(4)).verdict
    assert is_semi_saturated(star_graph(4), K3).verdict
    rep = is_semi_saturated(disjoint_union([K3, K3]), cycle_graph(6))
    assert not rep.verdict and rep.certificate_kind == "non-edge"
    u, v = rep.certificate
    assert (u < 3) != (v < 3)  # an edge between the two triangles


def test_saturated():
    assert is_saturated(turan(6, 2), K3).verdict
    assert is_saturated(star_graph(4), K3).verdict
    rep = is_saturated(complete_graph(4), K3)
    assert not rep.verdict and rep.certificate_kind == "embedding"


def test_dominated():
    for n in range(3, 7):
        assert is_dominated(complete_graph(n), K3).verdict
    rep = is_dominated(cycle_graph(4), K3)
    assert not rep.verdict and rep.certificate_kind == "uncovered-edge"
    assert is_dominated(complete_graph(4).remove_edge(0, 1), K3).verdict
    # edgeless hosts are vacuously dominated
    assert is_dominated(empty_graph(3), K3).verdict


def test_dom_sat():
    assert is_dom_sat(path_graph(2), complete_graph(2)).verdict
    assert is_dom_sat(complete_graph(4).remove_edge(0, 1), K3).verdict
    rep = is_dom_sat(cycle_graph(5), K3)
    assert not rep.verdict and rep.certificate_kind == "uncovered-edge"


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=60, deadline=None)
def test_single_edge_pattern_is_universal(g):
    k2 = complete_graph(2)
    # every graph is weakly K_2-saturated, and every graph with an edge
    # is K_2-dom-sat
    assert is_weakly_saturated(g, k2).verdict
    assert is_semi_saturated(g, k2).verdict
    if g.edge_count >= 1:
        assert is_dom_sat(g, k2).verdict


def test_weakly_saturated():
    for g in (path_graph(4), cycle_graph(5), empty_graph(3)):
        assert is_weakly_saturated(g, complete_graph(2)).verdict
    rep = is_weakly_saturated(empty_graph(4), K3)
    assert not rep.verdict and rep.certificate_kind == "closure-gap"
    assert len(rep.certificate) == 6
    rep = is_weakly_saturated(star_graph(4), K3)
    assert rep.verdict and rep.certificate_kind == "closure-order"
    assert len(rep.certificate) == 6  # the complement of K_{1,4} within K_5


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=80, deadline=None)
def test_certificates_replay(host):
    for name in ("free", "semi-saturated", "saturated", "dominated", "dom-sat", "weakly-saturated"):
        for pattern in (K3, path_graph(3), star_graph(3)):
            rep = run_predicate(name, host, pattern)
            assert recheck_certificate(rep, host, pattern)


_TWO_K3 = disjoint_union([K3, K3])
_K4_MINUS_E = complete_graph(4).remove_edge(0, 1)

# each certificate is valid for some other question, names a vertex
# outside the host, or is not a tuple of int vertices, so none may replay
# True against pattern K3, and none may raise
_FORGED = {
    "free-with-closure-order": (
        PredicateReport("free", True, "closure-order", ()),
        complete_graph(4),
    ),
    "dom-sat-with-closure-order": (
        PredicateReport(
            "dom-sat", True, "closure-order",
            is_weakly_saturated(star_graph(4), K3).certificate,
        ),
        star_graph(4),  # weakly saturated, but its edges lie in no triangle
    ),
    "dominated-with-non-edge": (
        PredicateReport(
            "dominated", False, "non-edge", is_semi_saturated(_TWO_K3, K3).certificate
        ),
        _TWO_K3,
    ),
    "uncovered-edge-at-vertex-minus-one": (
        PredicateReport("dominated", False, "uncovered-edge", (-1, 2)),
        path_graph(4),
    ),
    # K4 minus the one gap pair is no fixed point: adding it makes a K3
    "closure-gap-missing-pairs": (
        PredicateReport("weakly-saturated", False, "closure-gap", ((0, 1),)),
        empty_graph(4),
    ),
    # the order lists every non-edge, but adding (0, 1) makes no copy
    "closure-order-with-no-copy": (
        PredicateReport(
            "weakly-saturated", True, "closure-order", tuple(empty_graph(4).non_edges())
        ),
        empty_graph(4),
    ),
    "closure-order-cut-short": (
        PredicateReport(
            "weakly-saturated", True, "closure-order",
            is_weakly_saturated(star_graph(4), K3).certificate[:-1],
        ),
        star_graph(4),
    ),
    # an empty gap makes K_n the stuck graph, which proves nothing; both
    # hosts are weakly K3-saturated
    "empty-closure-gap-on-star": (
        PredicateReport("weakly-saturated", False, "closure-gap", ()),
        star_graph(4),
    ),
    "empty-closure-gap-on-complete": (
        PredicateReport("weakly-saturated", False, "closure-gap", ()),
        complete_graph(4),
    ),
    "embedding-with-a-str-vertex": (
        PredicateReport("free", False, "embedding", (0, 1, "a")),
        _K4_MINUS_E,
    ),
    "embedding-with-a-float-vertex": (
        PredicateReport("free", False, "embedding", (0, 1.5, 2)),
        _K4_MINUS_E,
    ),
    "embedding-that-is-none": (
        PredicateReport("free", False, "embedding", None),
        _K4_MINUS_E,
    ),
    "uncovered-edge-with-a-float-vertex": (
        PredicateReport("dominated", False, "uncovered-edge", (0.5, 1)),
        _K4_MINUS_E,
    ),
    "non-edge-with-a-str-vertex": (
        PredicateReport("semi-saturated", False, "non-edge", ("0", 1)),
        _K4_MINUS_E,
    ),
    "closure-order-that-is-none": (
        PredicateReport("weakly-saturated", True, "closure-order", None),
        _K4_MINUS_E,
    ),
}


@pytest.mark.parametrize("report, host", _FORGED.values(), ids=_FORGED.keys())
def test_forged_certificates_do_not_replay(report, host):
    assert recheck_certificate(report, host, K3) is False


def test_malformed_pairs_do_not_replay():
    p4 = path_graph(4)
    for pair in ((0, 4), (2, 2), (-1, 1), (1,), 3):
        for kind in ("non-edge", "uncovered-edge"):
            assert not recheck_certificate(PredicateReport("dom-sat", False, kind, pair), p4, K3)
        rep = PredicateReport("weakly-saturated", False, "closure-gap", (pair,))
        assert not recheck_certificate(rep, p4, K3)
    # an edge of the host, or one added twice, is no step of a closure order
    order = is_weakly_saturated(star_graph(4), K3).certificate
    for forged in (((0, 1),) + order, order[:1] + order):
        rep = PredicateReport("weakly-saturated", True, "closure-order", forged)
        assert not recheck_certificate(rep, star_graph(4), K3)


def test_semi_saturation_certificate_blocks_new_copy():
    rep = is_semi_saturated(disjoint_union([K3, K3]), cycle_graph(6))
    assert not rep.verdict
    assert recheck_certificate(rep, disjoint_union([K3, K3]), cycle_graph(6))


# -- the predicates against their definitions ---------------------------------


def test_predicates_match_their_definitions(pool):
    # the oracle lists the copies of each pattern in K_n and applies the
    # definitions; it loads nothing from embed, canon or predicates
    hosts = [g for n in range(2, 8) for g in all_classes(n) if g.edge_count]
    assert len(hosts) == 1245
    replayed = set(pool.values())
    compared = 0
    for host in hosts:
        rows = host.rows
        for pattern in ANCHOR_PATTERNS:
            for name, (verdict, kind, cert) in decide(host, pattern).items():
                rep = run_predicate(name, host, pattern)
                if kind == "embedding":  # any copy will do: check it is one
                    cert = rep.certificate
                    assert len(set(cert)) == len(cert) == pattern.n and all(
                        host.has_edge(cert[a], cert[b]) for a, b in pattern.edges())
                assert rep == (name, verdict, kind, cert), (host, pattern)
                compared += 1
                # a replay costs as much as the call, so only the pool
                # patterns on the 202 hosts below 7 vertices are replayed
                if host.n < 7 and pattern in replayed:
                    # the probe works on its own copy of the host
                    assert run_predicate(name, host, pattern) == rep
                    assert recheck_certificate(rep, host, pattern)
        assert host.rows is rows
    assert compared == 97110


def test_one_host_set_up_per_predicate_call(pool, monkeypatch):
    built = []

    class Counted(predicates._Host):
        __slots__ = ()

        def __init__(self, pattern, host):
            built.append(host)
            super().__init__(pattern, host)

    monkeypatch.setattr(predicates, "_Host", Counted)
    for host in pool.values():
        for pattern in pool.values():
            for name in PREDICATES:
                built.clear()
                run_predicate(name, host, pattern)
                assert built == [host], (name, host, pattern)


def test_pattern_larger_than_host_starts_no_search(monkeypatch):
    # every vertex of K20 minus an edge meets P21's degrees, so an anchored
    # probe would try about e * 10! partial placements per anchor to fail
    def search(*args):
        raise AssertionError("an embedding search started")

    monkeypatch.setattr(embed, "_search", search)
    host = complete_graph(20).remove_edge(0, 1)
    for name in PREDICATES:
        assert run_predicate(name, host, path_graph(21)).verdict == (name == "free")


def _digest_hosts():
    rng = random.Random(20261018)
    hosts = []
    for _ in range(50):
        n = rng.randint(7, 10)
        p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        hosts.append(from_edges(n, pairs))
    return hosts


def test_reports_and_edge_copies_digest(pool):
    # recorded before predicates shared one host set-up per call: every
    # report and every copy_through_edge mapping is unchanged by it
    h = hashlib.sha256()
    for host in _digest_hosts():
        for pattern in pool.values():
            for name in PREDICATES:
                rep = run_predicate(name, host, pattern)
                h.update(json.dumps(rep.to_json_dict(), sort_keys=True).encode())
            for e in host.edges():
                h.update(repr(copy_through_edge(pattern, host, e)).encode())
    assert h.hexdigest() == "5bee70c4a6d0d9664b9d55e92e4aadaeaefebd3cc46b25bb645061dab0cc2c1f"


def test_report_json_round_trip():
    assert is_dominated(cycle_graph(4), K3).to_json_dict() == {
        "schema": "domsat/1",
        "predicate": "dominated",
        "verdict": False,
        "certificate_kind": "uncovered-edge",
        "certificate": [0, 1],
    }
    assert is_weakly_saturated(star_graph(4), K3).to_json_dict() == {
        "schema": "domsat/1",
        "predicate": "weakly-saturated",
        "verdict": True,
        "certificate_kind": "closure-order",
        "certificate": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]],
    }


def test_run_predicate_normalizes_names():
    assert run_predicate("dom_sat", complete_graph(2), complete_graph(2)).verdict
    with pytest.raises(ValueError):
        run_predicate("nonsense", K3, K3)


# -- tree witness lemma -------------------------------------------------------


def test_lemma_star_cases():
    assert lemma_tree_witness(star_graph(5), 3) == "star"
    assert lemma_tree_witness(star_graph(2), 2) == "star"  # P_3 is a star


def test_lemma_path_example():
    pair = lemma_tree_witness(path_graph(4), 2)
    assert pair != "star"
    u, v = pair
    assert not path_graph(4).has_edge(u, v)
    assert tree_witness_ok(path_graph(4), 2, u, v)


def test_lemma_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lemma_tree_witness(cycle_graph(4), 3)  # not a tree
    with pytest.raises(ValueError):
        lemma_tree_witness(path_graph(6), 2)  # order not below 3j
    with pytest.raises(ValueError):
        lemma_tree_witness(path_graph(2), 4)  # below the lemma range


@pytest.mark.parametrize("pair", [(0, 9), (9, 0), (0, -1), (-1, 3), (0, 5), (2, 2), (0, 2.0), (True, 3)])
def test_tree_witness_ok_refuses_pairs_outside_the_tree(pair):
    assert tree_witness_ok(path_graph(5), 2, *pair) is False


def test_lemma_fourteen_vertex_spider():
    # two adjacent centers, three 2-vertex legs each: 14 vertices, j = 5
    edges = [(0, 1)]
    v = 2
    for center in (0, 1):
        for _ in range(3):
            edges += [(center, v), (v, v + 1)]
            v += 2
    spider = from_edges(14, edges)
    pair = lemma_tree_witness(spider, 5)
    assert pair != "star"
    assert tree_witness_ok(spider, 5, *pair)


def test_lemma_path_search_matches_vertex_sequences():
    # every sequence of j distinct vertices of t-u-v, consecutive ones
    # adjacent, the first in N(u) | N(v)
    from domsat.enumeration import enumerate_trees
    from domsat.verify import _exists_path_from, _recheck_pair

    for order in range(1, 8):
        for t in enumerate_trees(order):
            for u, v in t.non_edges():
                alive = t.vertex_mask & ~(1 << u) & ~(1 << v)
                starts = (t.rows[u] | t.rows[v]) & alive
                rest = [w for w in range(t.n) if alive >> w & 1]
                for j in range(1, 6):
                    want = any(
                        starts >> seq[0] & 1
                        and all(t.has_edge(a, b) for a, b in zip(seq, seq[1:]))
                        for seq in permutations(rest, j)
                    )
                    assert _exists_path_from(t, alive, starts, j) == want, (t, u, v, j)
                    assert tree_witness_ok(t, j, u, v) == _recheck_pair(t, j, u, v) == (not want)

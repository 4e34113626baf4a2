import hashlib
import json
import random
from itertools import permutations

import pytest
from hypothesis import given, settings

from conftest import ANCHOR_PATTERNS, graphs
from domsat import (
    all_classes,
    bridge_family,
    complete_bipartite,
    complete_graph,
    copy_through_edge,
    cycle_gadget,
    cycle_graph,
    disjoint_union,
    dom_turan,
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
    path_component_size,
    path_family,
    path_graph,
    recheck_certificate,
    run_predicate,
    star_family,
    star_graph,
    star_plus_pair,
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
# the K3 closure of two stars K1,5 (centres 0 and 6) fills each star and
# stops at the 36 pairs between them, more than 2n = 24, so a replay of
# its gap reads the grown host's twins
_TWO_STARS = disjoint_union([star_graph(5)] * 2)
_STARS_GAP = is_weakly_saturated(_TWO_STARS, K3).certificate


def _gap(cert):
    return PredicateReport("weakly-saturated", False, "closure-gap", cert)


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
    # with (5, 11) added, (0, 11) closes the triangle 0-5-11
    "twin-rich-closure-gap-missing-a-pair": (_gap(_STARS_GAP[:-1]), _TWO_STARS),
    "twin-rich-closure-gap-with-a-host-edge": (_gap(_STARS_GAP + ((0, 1),)), _TWO_STARS),
    "twin-rich-closure-gap-with-a-pair-reversed": (
        _gap(((6, 0),) + _STARS_GAP[1:]), _TWO_STARS,
    ),
    # the stars K1,3 and K1,7 leave the pairs between 0..3 and 4..11
    "twin-rich-closure-gap-of-another-host": (
        is_weakly_saturated(disjoint_union([star_graph(3), star_graph(7)]), K3),
        _TWO_STARS,
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


def test_twin_rich_closure_gap_replays():
    assert _STARS_GAP[0] == (0, 6) and len(_STARS_GAP) == 36
    assert recheck_certificate(_gap(_STARS_GAP), _TWO_STARS, K3)


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


# -- one pair probed per twin orbit -------------------------------------------


def _plain_report(name, g, f):
    """The report of a scanning predicate with every pair probed, in order
    (a scan of one pair never reads the twins); the closure probes each
    non-edge uv of the grown graph h in h + uv and restarts after each
    edge it adds."""
    if name == "weakly-saturated":
        h, added = g, []
        while e := next((e for e in h.non_edges() if copy_through_edge(f, h.add_edge(*e), e)), None):
            h = h.add_edge(*e)
            added.append(e)
        if h.non_edges():
            return PredicateReport(name, False, "closure-gap", tuple(h.non_edges()))
        return PredicateReport(name, True, "closure-order", tuple(added))
    probe = embed._Host(f, g)
    for kind in predicates._TESTS[name]:
        if kind == predicates.CERT_EMBEDDING:
            found = probe.first()
        elif kind == predicates.CERT_UNCOVERED_EDGE:
            found = next((e for e in g.edges() if probe.through_edge(*e) is None), None)
        else:
            found = next((e for e in g.non_edges() if probe.scan([e], 1)), None)
        if found is not None:
            return PredicateReport(name, False, kind, found)
    return PredicateReport(name, True)


def _dumbbell(r):
    return disjoint_union([complete_graph(r)] * 2).add_edge(r - 1, r)


def _certify_families():
    """(host, claim pattern) for the 100 witness-family instances on 12..30
    vertices that the certify benchmark builds, the cycle_gadget negative
    control (loops one vertex too long) included."""
    orders = range(12, 25)
    out = [(dom_turan(n, r), complete_graph(r)) for r in range(3, 7) for n in range(12, 21)]
    out.append((dom_turan(30, 5), complete_graph(5)))
    out += [(path_family(n, r), path_graph(r))
            for r in range(3, 14) for n in orders if n % path_component_size(r) == 0]
    out += [(star_family(n, r), star_graph(r))
            for r in range(2, 6) for n in orders if n % (2 * r - 1) == 0]
    for r, p in ((5, 2), (6, 3), (7, 4), (5, 3), (6, 4), (7, 5)):
        out += [(cycle_gadget(n, r, p), cycle_graph(r))
                for n in orders if (n - r) % p == 0 and (n - r) // p >= 2]
    out += [star_plus_pair(s)[::-1] for s in (7, 8)]
    out += [(bridge_family(_dumbbell(r), n), _dumbbell(r))
            for r in (3, 4, 5) for n in orders if n % (2 * r) == 0]
    return out


def _stuck_closures():
    """(host, pattern) for 21 twin-rich hosts on 12..20 vertices whose
    closure stops with more than 2n pairs pending: K_{a,b} against K4
    adds no edge, and two or three stars against K3 fill each star first."""
    out = []
    for n in range(12, 21):
        a = n // 2
        out.append((complete_bipartite(a, n - a), complete_graph(4)))
        out.append((disjoint_union([star_graph(a - 1), star_graph(n - a - 1)]), K3))
    out += [(disjoint_union([star_graph(n // 3 - 1)] * 3), K3) for n in (12, 15, 18)]
    return out


def test_twin_orbit_scans_match_a_plain_scan(pool):
    # a pair a twin swap maps onto an earlier one is never probed; the
    # verdict, certificate kind and certificate (the first failing pair,
    # the closure order or its gap) stay those of a scan that probes
    # every pair
    small = [(g, f) for n in range(2, 8) for g in all_classes(n) if g.edge_count
             for f in pool.values()]
    families = _certify_families()
    assert len(families) == 100
    assert sum(not is_dom_sat(g, f).verdict for g, f in families) == 9
    assert all(is_weakly_saturated(g, f).verdict for g, f in families)
    stuck = _stuck_closures()
    assert all(len(is_weakly_saturated(g, f).certificate) > 2 * g.n for g, f in stuck)
    for g, f in small + families + stuck:
        for name in ("dominated", "semi-saturated", "saturated", "dom-sat", "weakly-saturated"):
            assert run_predicate(name, g, f) == _plain_report(name, g, f), (name, g, f)


def test_pair_probes_per_twin_orbit(monkeypatch):
    """Anchored pair probes made by one dom-sat call.  Probing every
    pair makes 190 on dom_turan(20, 4), 91 on star_plus_pair(8) and 276 on
    bridge_family(dumbbell of two K4, 24); one probe per twin orbit makes
    55, 18 and 96.  The last two probe every edge, since their edge lists
    hold at most 2n pairs, and skip along the non-edges.  The
    weakly-saturated closure of two stars K1,5 against K3 makes 536
    probes when it probes every pending pair and 70 when each scan
    probes one pair per twin orbit of the host grown so far."""
    probes = []
    through = embed._Host._through

    def counted(self, u, v, du, dv):
        probes.append((u, v))
        return through(self, u, v, du, dv)

    pattern, host = star_plus_pair(8)
    cases = [
        (dom_turan(20, 4), complete_graph(4), 55),
        (host, pattern, 18),
        (bridge_family(_dumbbell(4), 24), _dumbbell(4), 96),
    ]
    monkeypatch.setattr(embed._Host, "_through", counted)
    for g, f, want in cases:
        probes.clear()
        assert is_dom_sat(g, f).verdict
        assert len(probes) == want, (g, f)
    probes.clear()
    assert not is_weakly_saturated(_TWO_STARS, K3).verdict
    assert len(probes) == 70


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

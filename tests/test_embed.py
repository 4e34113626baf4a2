import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANCHOR_PATTERNS, brute_pair_firsts, graphs
from domsat import (
    all_classes,
    automorphism_order,
    complete_graph,
    copy_through_edge,
    count_copies,
    count_embeddings,
    cycle_gadget,
    cycle_graph,
    disjoint_union,
    dom_turan,
    embedding_exists,
    empty_graph,
    enumerate_graphs,
    from_edges,
    is_valid_embedding,
    path_family,
    path_graph,
    star_family,
    star_graph,
)
from domsat import embed
from domsat.canon import _canonical_search, _pair_orbit_firsts
from domsat.embed import _Host, _mapping, _plan, _search, _search_order
from domsat.enumeration import levels
from domsat.oracle import _copies, _pairs, decide

PETERSEN = from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def test_existence_examples():
    found = embedding_exists(path_graph(3), cycle_graph(4))
    assert found is not None and is_valid_embedding(path_graph(3), cycle_graph(4), found)
    assert embedding_exists(complete_graph(3), cycle_graph(4)) is None
    # no host vertex meets the centre's degree: the search stops at its first step
    assert embedding_exists(star_graph(5), cycle_graph(8)) is None
    found = embedding_exists(cycle_graph(5), PETERSEN)
    assert found is not None and is_valid_embedding(cycle_graph(5), PETERSEN, found)
    k3, k4 = complete_graph(3), complete_graph(4)
    assert is_valid_embedding(k3, k4, [0, 1, 2])  # list mappings are accepted
    for mapping in ((0, 1, "a"), (0, 1.0, 2), (0, True, 2)):
        assert is_valid_embedding(k3, k4, mapping) is False, mapping


def _naive_exists(pattern, host):
    return not decide(host, pattern)["free"][0]


def test_existence_matches_naive_small():
    patterns = [g for g in enumerate_graphs(4, 3)] + [
        complete_graph(3),
        cycle_graph(4),
        complete_graph(4),
        star_graph(3),
    ]
    hosts = list(enumerate_graphs(5, 4)) + list(enumerate_graphs(5, 6)) + [
        cycle_graph(6),
        complete_graph(6).remove_edge(0, 1),
    ]
    for pattern in patterns:
        for host in hosts:
            got = embedding_exists(pattern, host)
            assert (got is not None) == _naive_exists(pattern, host)
            if got is not None:
                assert is_valid_embedding(pattern, host, got)


def test_existence_matches_naive_five_on_seven():
    patterns = [cycle_graph(5), path_graph(5), star_graph(4), complete_graph(5)]
    hosts = [
        PETERSEN.subgraph(0b1111111),
        cycle_graph(7),
        complete_graph(7).remove_edge(0, 1).remove_edge(2, 3),
        disjoint_union([complete_graph(4), complete_graph(3)]),
        from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)]),
    ]
    for pattern in patterns:
        for host in hosts:
            got = embedding_exists(pattern, host)
            assert (got is not None) == _naive_exists(pattern, host)


def test_count_examples():
    assert count_copies(complete_graph(3), complete_graph(4)) == 4
    assert count_copies(path_graph(3), complete_graph(3)) == 3
    for host in (cycle_graph(5), star_graph(4), complete_graph(4)):
        assert count_copies(complete_graph(2), host) == host.edge_count
    assert count_embeddings(complete_graph(3), complete_graph(4)) == 24
    assert count_copies(star_graph(5), cycle_graph(8)) == 0
    assert count_embeddings(star_graph(5), cycle_graph(8)) == 0


def test_count_petersen_cycles():
    # classic invariants: 12 pentagons and 10 hexagons
    assert count_copies(cycle_graph(5), PETERSEN) == 12
    assert count_copies(cycle_graph(6), PETERSEN) == 10
    assert count_copies(complete_graph(3), PETERSEN) == 0


def test_count_with_isolated_pattern_vertex():
    # pattern K_2 plus an isolated vertex: copies identified by image pairs
    pattern = from_edges(3, [(0, 1)])
    host = disjoint_union([complete_graph(2), empty_graph(2)])
    # one edge, isolated vertex placeable on either spare vertex or... the
    # image is (edge, third vertex): 2 embeddings per choice / |Aut| = 2
    assert count_copies(pattern, host) == 2


def _copies_by_division(pattern, host):
    """The count as embeddings / |Aut(pattern)|, which must divide exactly."""
    copies, rem = divmod(count_embeddings(pattern, host), automorphism_order(pattern))
    assert rem == 0, (pattern, host)
    return copies


def test_count_copies_matches_embeddings_over_automorphisms():
    # every pattern class on 2-5 vertices (edgeless, disconnected and with
    # isolated vertices included) on every host class on at most 6
    # vertices, each also under a seeded relabelling
    rnd = random.Random(1919)
    patterns = [f for n in range(2, 6) for f in all_classes(n)]
    for n in range(2, 7):
        for host in all_classes(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            for h in (host, host.relabel(perm)):
                for f in patterns:
                    if f.n <= n:
                        assert count_copies(f, h) == _copies_by_division(f, h), (f, h)
    # the certify-scale witness families, each with its own pattern and two more
    families = (
        (dom_turan(17, 6), complete_graph(6)),
        (cycle_gadget(None, 6), cycle_graph(6)),
        (star_family(14, 4), star_graph(4)),
        (path_family(12, 5), path_graph(5)),
    )
    for host, own in families:
        for f in (own, complete_graph(3), path_graph(4)):
            assert count_copies(f, host) == _copies_by_division(f, host), (f, host)


def test_count_copies_matches_embeddings_with_constraints_placed_late():
    # a canonical representative never puts a base vertex after another
    # vertex of its orbit in the search order, so its plan's below is
    # empty; relabelled patterns can, and there the constraint is kept
    # at the base vertex's own position
    rnd = random.Random(2021)
    patterns = [from_edges(6, [(0, 2), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4)])]
    for f in (f for level in islice(levels(7), 5, 10) for f in level):
        perm = list(range(7))
        rnd.shuffle(perm)
        patterns.append(f.relabel(perm))
    patterns = [f for f in patterns if any(_plan(f).below)]
    assert len(patterns) == 7
    assert count_copies(patterns[0], complete_graph(7)) == 2520
    dense = from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if rnd.random() < 0.7])
    for host in (complete_graph(7), PETERSEN, dense):
        for f in patterns:
            assert count_copies(f, host) == _copies_by_division(f, host), (f, host)


@given(graphs(min_n=2, max_n=6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_count_invariant_under_host_relabeling(host, rnd):
    perm = list(range(host.n))
    rnd.shuffle(perm)
    relabeled = host.relabel(perm)
    for pattern in (path_graph(3), complete_graph(3), star_graph(3)):
        if pattern.n > host.n:
            continue
        assert count_copies(pattern, host) == count_copies(pattern, relabeled)
        # existence and counting share one search kernel
        for g in (host, relabeled):
            assert (embedding_exists(pattern, g) is None) == (
                count_embeddings(pattern, g) == 0
            )


def test_copy_through_edge_examples():
    host = complete_graph(4).remove_edge(2, 3)
    found = copy_through_edge(complete_graph(3), host, (0, 1))
    assert found is not None
    assert set(found) != {0, 1}  # it is a triangle containing edge (0,1)
    star = star_graph(4)
    for e in star.edges():
        assert copy_through_edge(complete_graph(3), star, e) is None
    p3 = path_graph(3)
    assert copy_through_edge(p3, p3, (0, 1)) is not None
    # vertex 3 is adjacent to 0, so (-1, 0) would wrap onto edge (3, 0)
    for e in ((0, 2), (99, 0), (0, -1), (-1, 0)):
        with pytest.raises(ValueError, match="is not an edge of the host"):
            copy_through_edge(complete_graph(3), cycle_graph(4), e)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60, deadline=None)
def test_edge_probe_matches_built_hosts_and_restores(host):
    for pattern in (complete_graph(3), cycle_graph(4), path_graph(4), star_graph(3)):
        probe = _Host(pattern, host)
        fresh = (probe.rows[:], probe.degs[:], probe.deg_ok[:])
        for e in host.edges():
            assert probe.through_edge(*e) == copy_through_edge(pattern, host, e)
        for e in host.non_edges():
            found = copy_through_edge(pattern, host.add_edge(*e), e) is not None
            assert (probe.scan([e], 1, True) == e) is found
        assert (probe.rows, probe.degs, probe.deg_ok) == fresh
        # a committed edge leaves the probe in the state of a probe of host + e
        grown_host = host
        for e in host.non_edges()[:2]:
            probe.add(*e)
            grown_host = grown_host.add_edge(*e)
            grown = _Host(pattern, grown_host)
            assert (probe.rows, probe.degs, probe.deg_ok) == (grown.rows, grown.degs, grown.deg_ok)


def test_scan_after_add_matches_a_fresh_host():
    # an added edge changes the host's twins, so a scan after it must find
    # them again rather than skip pairs by the old ones; on 7 vertices with
    # at most 5 edges every non-edge list, before and after the added edge,
    # holds more than 2n = 14 pairs, so a scan that passes a pair reads the twins
    checked = 0
    for host in all_classes(7):
        if not 0 < host.edge_count <= 5:
            continue
        non_edges = host.non_edges()
        for pattern in (complete_graph(3), path_graph(3), star_graph(3), cycle_graph(4)):
            for e in non_edges:
                grown = host.add_edge(*e)
                probe = _Host(pattern, host)
                probe.scan(non_edges, 1)
                probe.add(*e)
                pairs = grown.non_edges()
                assert probe.scan(pairs, 1) == _Host(pattern, grown).scan(pairs, 1)
                checked += 1
    assert checked == 2616


@given(graphs(min_n=3, max_n=6), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_new_copies_appear_iff_through_edge(host, rnd):
    non_edges = host.non_edges()
    if not non_edges:
        return
    e = rnd.choice(non_edges)
    extended = host.add_edge(*e)
    for pattern in (complete_graph(3), path_graph(3), path_graph(4), star_graph(3)):
        if pattern.n > host.n:
            continue
        gained = count_copies(pattern, extended) - count_copies(pattern, host)
        through = copy_through_edge(pattern, extended, e)
        assert (gained >= 1) == (through is not None)
        if through is not None:
            assert is_valid_embedding(pattern, extended, through)
            image_edges = {
                tuple(sorted((through[a], through[b]))) for a, b in pattern.edges()
            }
            assert tuple(sorted(e)) in image_edges


def _reference_through(pattern, host, u, v):
    """The anchored search over every anchor, not one per arc orbit: each
    pattern edge anchored onto uv, then onto vu, in host + uv."""
    if not host.has_edge(u, v):
        host = host.add_edge(u, v)
    if pattern.n > host.n:
        return None
    degs, pdegs = host.degrees(), pattern.degrees()
    deg_ok = [sum(1 << hv for hv in range(host.n) if degs[hv] >= d) for d in pdegs]
    image = [0] * pattern.n
    for a, b in pattern.edges():
        order, back = _search_order(pattern, (a, b))
        for hu, hv in ((u, v), (v, u)):
            if pdegs[a] > degs[hu] or pdegs[b] > degs[hv]:
                continue
            image[0], image[1] = hu, hv
            if _search(host.rows, order, back, deg_ok, image, 2, (1 << u) | (1 << v)):
                return _mapping(order, image)
    return None


@given(graphs(min_n=2, max_n=8))
@settings(max_examples=120, deadline=None)
def test_anchored_probes_find_the_reference_mapping(host):
    for pattern in ANCHOR_PATTERNS:
        probe = _Host(pattern, host)
        for e in host.edges():
            assert probe.through_edge(*e) == _reference_through(pattern, host, *e), (pattern, e)
        for e in host.non_edges():
            found = _reference_through(pattern, host, *e) is not None
            assert (probe.scan([e], 1, True) == e) is found, (pattern, e)


def test_anchored_probe_mappings_match_the_copy_definition():
    # shares no code with embed: the copies of the pattern in K_n come from
    # the oracle, and each mapping is checked against the host's pair bits
    for n in range(2, 7):
        pairs = _pairs(n)
        for host in all_classes(n):
            gaps = [b for b, p in enumerate(pairs) if not host.has_edge(*p)]
            for pattern in ANCHOR_PATTERNS:
                using = _copies(pattern, n)[1]
                probe = _Host(pattern, host)
                for b, (u, v) in enumerate(pairs):
                    # a copy S through e = uv in G + e with S minus G in {e}
                    other_gaps = 0
                    for c in gaps:
                        if c != b:
                            other_gaps |= using[c]
                    exists = bool(using[b] & ~other_gaps)
                    if host.has_edge(u, v):
                        mapping = probe.through_edge(u, v)
                    else:
                        assert (probe.scan([(u, v)], 1, True) is not None) == exists
                        mapping = copy_through_edge(pattern, host.add_edge(u, v), (u, v))
                    assert (mapping is not None) == exists, (pattern, host, (u, v))
                    if mapping is None:
                        continue
                    assert len(mapping) == len(set(mapping)) == pattern.n
                    assert set(mapping) <= set(range(n))
                    image = {tuple(sorted((mapping[x], mapping[y]))) for x, y in pattern.edges()}
                    assert (u, v) in image
                    assert all(p == (u, v) or host.has_edge(*p) for p in image)


def test_one_anchor_per_arc_orbit():
    # the first arc of each Aut-orbit on arcs, Aut found over all n! maps
    for pattern in ANCHOR_PATTERNS:
        arcs = [arc for a, b in pattern.edges() for arc in ((a, b), (b, a))]
        firsts = _pair_orbit_firsts(arcs, _canonical_search(pattern)[2])
        assert firsts == brute_pair_firsts(pattern, arcs, ordered=True), pattern
        assert [order[:2] for _, _, order, _ in _plan(pattern).anchors] == firsts


def test_count_stops_early_below_the_pattern_edge_count(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched a host with too few edges")

    monkeypatch.setattr(embed, "_search", no_search)
    monkeypatch.setattr(embed, "_count", no_search)
    two_k2 = from_edges(4, [(0, 1), (2, 3)])
    # every degree is met, so only the edge count rules the copies out
    assert _Host(two_k2, from_edges(4, [(0, 1)])).count() == 0
    assert _Host(cycle_graph(4), disjoint_union([complete_graph(3), empty_graph(1)])).count() == 0
    assert _Host(two_k2, from_edges(4, [(0, 1)])).first() is None
    assert count_copies(two_k2, from_edges(4, [(0, 1)])) == 0

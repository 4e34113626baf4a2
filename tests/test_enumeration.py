import hashlib
from itertools import islice

import pytest

from domsat import (
    all_classes,
    are_isomorphic,
    canonical_form,
    class_count,
    complete_graph,
    empty_graph,
    enumerate_graphs,
    enumerate_trees,
    graph6_encode,
    path_graph,
    star_graph,
)
import domsat.enumeration
from domsat.canon import _pair_orbit_firsts
from domsat.enumeration import _canonical_entry, _in_first_cell, _key_tops, levels
from domsat.oracle import (
    labeled_class_counts,
    level_counts,
    naive_min_edges,
    perm_canonical_key,
)

# OEIS A000088: graphs on n vertices
KNOWN_TOTALS = {
    1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346, 9: 274668, 10: 12005168,
}
KNOWN_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def test_class_counts_match_known_totals():
    for n in range(1, 7):
        total = KNOWN_TOTALS[n]
        counts = [len(level) for level in levels(n)]
        assert len(counts) == n * (n - 1) // 2 + 1
        assert sum(counts) == total
        # complementation: count(n, m) == count(n, C(n,2) - m)
        assert counts == counts[::-1]


def test_seven_vertex_total():
    # 1044 graphs on 7 vertices; exercises deep levels of the generator
    counts = [len(level) for level in levels(7)]
    assert len(counts) == 22
    assert sum(counts) == 1044
    assert counts == counts[::-1]


def _extend_every_non_edge(n):
    """Levels built without orbit pruning: every one-edge extension of
    every class is canonicalised."""
    built = [[empty_graph(n)]]
    for _ in range(n * (n - 1) // 2):
        seen = set()
        nxt = []
        for parent in built[-1]:
            for e in parent.non_edges():
                child = canonical_form(parent.add_edge(*e))
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        nxt.sort(key=graph6_encode)
        built.append(nxt)
    return built


def test_orbit_pruned_levels_equal_full_extension():
    for n in range(1, 7):
        assert list(levels(n)) == _extend_every_non_edge(n)


def test_seven_vertex_stream_digest():
    # pins the classes, their canonical labels and the stream order
    text = "\n".join(graph6_encode(g) for g in all_classes(7))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "5e89f2e4a4c60b7e"


@pytest.fixture(scope="module")
def eight_vertex_walk():
    # one walk on 8 vertices, shared by the digest and the Burnside counts
    return list(levels(8))


def test_eight_vertex_stream_digest(eight_vertex_walk):
    # pins the 12 346 classes on 8 vertices, their canonical labels and the stream order
    text = "\n".join(graph6_encode(g) for level in eight_vertex_walk for g in level)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "8f49326fb18e2d9f"


def _full_key_top(parent, u, v):
    """parent + uv's edges of largest key (d_a + d_b, d_a * d_b), in
    edges() order then uv, from every edge's key in the child: the rule
    the enumerator's key filters must agree with."""
    deg = list(parent.degrees())
    deg[u] += 1
    deg[v] += 1
    edges = parent.edges() + [(u, v)]
    keys = [(deg[a] + deg[b], deg[a] * deg[b]) for a, b in edges]
    return [e for e, k in zip(edges, keys) if k == max(keys)]


def _parents(n_max):
    """Every class on at most n_max vertices, with generators of its
    automorphism group (each class is its own canonical form)."""
    for n in range(1, n_max + 1):
        for g in all_classes(n):
            yield g, _canonical_entry(g, [])[1]


def test_key_filters_match_full_key_rule():
    for parent, gens in _parents(7):
        wanted = {}
        for u, v in parent.non_edges():
            top = _full_key_top(parent, u, v)
            if top[-1] == (u, v):
                wanted[u, v] = top
        # with no generators every non-edge is its own orbit
        assert {(u, v): top for u, v, top in _key_tops(parent, [])} == wanted
        # with Aut(parent), each orbit that passes keeps its first pair
        firsts = [e for e in _pair_orbit_firsts(parent.non_edges(), gens) if e in wanted]
        assert [(u, v) for u, v, _ in _key_tops(parent, gens)] == firsts


def test_first_cell_rejects_only_children_the_orbit_test_rejects():
    rejected = 0
    for parent, _ in _parents(7):
        for u, v, top in _key_tops(parent, []):
            child = parent.add_edge(u, v)
            if not _in_first_cell(child, top):
                rejected += 1
                assert _canonical_entry(child, top) is None
    # every key-top non-edge of every parent, not one per orbit, so not vacuous
    assert rejected == 795


def test_levels_labelling_count(monkeypatch):
    # a filter that is lost but still sound changes no output, only this count
    calls = 0
    search = domsat.enumeration._canonical_search

    def counted(g):
        nonlocal calls
        calls += 1
        return search(g)

    monkeypatch.setattr(domsat.enumeration, "_canonical_search", counted)
    assert sum(len(level) for level in levels(7)) == 1044
    assert calls == 1117


def test_small_levels():
    reps = list(enumerate_graphs(4, 3))
    assert len(reps) == 3
    names = {canonical_form(path_graph(4)), canonical_form(star_graph(3))}
    assert names <= set(reps)
    assert list(enumerate_graphs(4, 6)) == [complete_graph(4)]
    assert class_count(4, 0) == 1


def test_stream_is_deterministic_and_canonical():
    first = list(enumerate_graphs(5, 5))
    second = list(enumerate_graphs(5, 5))
    assert first == second
    for g in first:
        assert canonical_form(g) == g
        assert g.edge_count == 5 and g.n == 5


def test_no_two_classes_isomorphic():
    reps = list(enumerate_graphs(5, 4))
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not are_isomorphic(a, b)


def test_range_checks():
    # a bad n or m raises at the call, before anything is iterated
    for n, m in ((11, 3), (0, 0), (4, 7), (4, -1)):
        with pytest.raises(ValueError):
            enumerate_graphs(n, m)


def test_tree_counts():
    for n, count in KNOWN_TREES.items():
        assert len(enumerate_trees(n)) == count


def test_oracle_counts_agree_with_fast_path():
    for n in (4, 5, 6):
        fast = {m: len(level) for m, level in enumerate(levels(n)) if level}
        assert labeled_class_counts(n) == fast


def test_burnside_level_counts_totals_and_complement_symmetry():
    for n, total in KNOWN_TOTALS.items():
        counts = level_counts(n)
        assert len(counts) == n * (n - 1) // 2 + 1
        assert sum(counts) == total
        assert counts == counts[::-1]


@pytest.mark.parametrize("n, m_max", [(1, 0), (2, 1), (3, 3), (4, 6), (5, 10), (6, 15),
                                      (7, 21), (8, 28), (9, 10), (10, 8)])
def test_burnside_level_counts_match_enumeration(n, m_max, request):
    # every level for n <= 8; the low levels, which the searches sweep, above
    walk = request.getfixturevalue("eight_vertex_walk") if n == 8 else levels(n)
    counts = level_counts(n)
    assert [len(level) for level in islice(walk, m_max + 1)] == counts[: m_max + 1]


def test_perm_canonical_key_is_class_invariant():
    # P_3 coded two ways on 3 vertices: pairs (0,1),(0,2),(1,2)
    assert perm_canonical_key(3, 0b011) == perm_canonical_key(3, 0b110)
    assert perm_canonical_key(3, 0b011) != perm_canonical_key(3, 0b111)


def test_naive_min_edges_small():
    m, witnesses = naive_min_edges(complete_graph(3), 4, "dom-sat")
    assert m == 5 and len(witnesses) == 1
    assert are_isomorphic(witnesses[0], complete_graph(4).remove_edge(0, 1))

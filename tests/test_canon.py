import hashlib
import random
from functools import partial
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_pair_firsts, graphs
from domsat import (
    are_isomorphic,
    automorphism_order,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    graph6_decode,
    join,
    path_graph,
    star_graph,
)
from domsat import canon
from domsat.canon import (
    _canonical_search,
    _orbit_roots,
    _pair_orbit_firsts,
    _root_cells,
    canonical_graph6,
    canonical_relabeling,
)
from domsat.constructions import (
    _clique_pair,
    bridge_family,
    cycle_gadget,
    cycle_gadget_layout,
    dom_turan,
    path_component_size,
    path_family,
    star_family,
    turan,
)
from domsat.embed import count_embeddings
from domsat.enumeration import _canonical_entry, all_classes
from domsat.graphs import _bits
from domsat.graphs import _twin_classes as twin_classes


def test_relabeling_invariance_examples():
    p3_a = from_edges(3, [(0, 1), (1, 2)])
    p3_b = from_edges(3, [(1, 0), (0, 2)])
    assert canonical_form(p3_a) == canonical_form(p3_b)


@given(graphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_relabeling_invariance(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


@given(graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_generators_are_automorphisms_of_the_canonical_form(g):
    c, gens = _canonical_entry(g, [])  # an empty top tests nothing
    assert c == canonical_form(g)
    for p in gens:
        assert sorted(p) == list(range(g.n)) and c.relabel(p) == c


def test_generators_reach_whole_orbits():
    # K_{1,5}: every leaf lies in one orbit, the centre in another
    c, gens = _canonical_entry(star_graph(5), [])
    centre = c.degrees().index(5)
    orbits = _orbit_roots(c.n, gens)
    assert len({orbits[v] for v in range(c.n) if v != centre}) == 1


def _small_classes(max_n, seed):
    """Every class on 1..max_n vertices, as enumerated and relabelled."""
    rnd = random.Random(seed)
    for n in range(1, max_n + 1):
        for g in all_classes(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            yield g
            yield g.relabel(perm)


def _certify_hosts():
    """Hosts of the sizes the certify benchmark labels: dom_turan(n, r)
    for r = 3..6 and n = 12..20, dom_turan(30, 5) and a relabelled
    cycle_gadget(23, 5, 2)."""
    hosts = [dom_turan(n, r) for r in range(3, 7) for n in range(12, 21)]
    hosts.append(dom_turan(30, 5))
    g = cycle_gadget(23, 5, 2)
    perm = list(range(g.n))
    random.Random(23).shuffle(perm)
    hosts.append(g.relabel(perm))
    return hosts


def test_non_edge_orbits_match_brute_force():
    for h in _small_classes(6, 6):
        got = _pair_orbit_firsts(h.non_edges(), _canonical_search(h)[2])
        assert got == brute_pair_firsts(h, h.non_edges(), ordered=False), h


@given(graphs(max_n=7))
@settings(max_examples=60, deadline=None)
def test_idempotence_and_isomorphy(g):
    c = canonical_form(g)
    assert canonical_form(c) == c
    assert c.n == g.n and c.edge_count == g.edge_count
    assert sorted(c.degrees()) == sorted(g.degrees())


def test_three_classes_of_three_edge_graphs():
    forms = set()
    for chosen in combinations([(u, v) for u in range(4) for v in range(u + 1, 4)], 3):
        forms.add(canonical_form(from_edges(4, chosen)))
    assert len(forms) == 3


def test_highly_symmetric_inputs_complete_quickly():
    big = complete_graph(16)
    assert canonical_form(big) == big
    assert canonical_form(complete_bipartite(6, 6)).edge_count == 36
    blocks = disjoint_union([complete_graph(4)] * 4)
    assert canonical_form(blocks).edge_count == 24


def _brute_aut(g):
    return sum(1 for p in permutations(range(g.n)) if g.relabel(p) == g)


def test_automorphism_orders_named():
    assert automorphism_order(complete_graph(4)) == 24
    assert automorphism_order(cycle_graph(5)) == 10
    assert automorphism_order(cycle_graph(6)) == 12
    assert automorphism_order(path_graph(4)) == 2
    assert automorphism_order(star_graph(4)) == 24
    assert automorphism_order(complete_bipartite(3, 3)) == 72
    assert automorphism_order(disjoint_union([complete_graph(3)] * 2)) == 72
    # a cubic and a 4-regular labelling on which pruning a sibling by an
    # automorphism that moves the prefix halves |Aut|
    for text, order in (("GAff@o", 12), ("G]MZUK", 4)):
        g = graph6_decode(text)
        assert automorphism_order(g) == count_embeddings(g, g) == order


@given(graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_automorphism_order_matches_brute_force(g):
    assert automorphism_order(g) == _brute_aut(g)


def test_automorphism_order_equals_self_embedding_count():
    # an injective edge-preserving self-map of a finite graph is an
    # automorphism, and the embedding kernel shares no code with canon
    rnd = random.Random(11)
    for n in range(1, 8):
        for g in all_classes(n):
            perm = list(range(n))
            rnd.shuffle(perm)
            h = g.relabel(perm)
            assert automorphism_order(g) == automorphism_order(h) == count_embeddings(g, g)


def _twin_classes(g):
    """Classes of vertices with the same neighbours apart from each other."""
    rows = g.rows
    classes: list[list[int]] = []
    for u in range(g.n):
        if not any(u in c for c in classes):
            classes.append([v for v in range(u, g.n) if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)])
    return classes


def test_twin_classes_match_their_definition():
    # the one twin rule canon's search and embed's scans share, on whole
    # vertex sets and on the cells of the root partition
    for g in [*_small_classes(7, 7), *(g for g, _ in _twin_heavy_hosts())]:
        want = [c for c in _twin_classes(g) if len(c) > 1]
        assert [list(_bits(m)) for m in twin_classes(g.rows, range(g.n))] == want, g
        for cell in _root_cells(g):
            got = [list(_bits(m)) for m in twin_classes(g.rows, _bits(cell))]
            assert got == [c for c in want if c[0] in _bits(cell)], g


def test_base_paths_take_twins_least_first():
    # a path meets each twin class in its least members, ascending, so the
    # swaps of the class's remaining consecutive twins fix its prefix and
    # the orbit test prunes every sibling twin of a tried one
    hosts = [*_small_classes(7, 7), *_certify_hosts(), *(g for g, _ in _twin_heavy_hosts())]
    for g in hosts:
        path = _canonical_search(g)[3]
        for c in _twin_classes(g):
            met = [v for v in path if v in c]
            assert met == c[:len(met)], (g, path, c)


def _clear_canon_caches():
    _canonical_search.cache_clear()


def _fresh(reader, g):
    _clear_canon_caches()
    return reader(g)


def test_automorphism_order_under_relabelling_and_one_shared_search():
    g = cycle_gadget(23, 5, 2)
    assert automorphism_order(g) == 4_354_560
    perm = list(range(g.n))
    random.Random(0).shuffle(perm)
    assert automorphism_order(g.relabel(perm)) == 4_354_560
    # the readers share one cached search; none may disturb another
    readers = [
        canonical_form,
        partial(_canonical_entry, top=[]),
        canonical_relabeling,
        automorphism_order,
        canonical_relabeling,
        partial(_canonical_entry, top=[]),
        canonical_form,
    ]
    _clear_canon_caches()
    got = [reader(g) for reader in readers]
    assert got == [_fresh(reader, g) for reader in readers]
    form, gens = got[1]
    assert g.relabel(got[2]) == form
    assert all(form.relabel(p) == form for p in gens)


@pytest.mark.parametrize("n", [25, 27])
def test_relabelled_cycle_gadgets_keep_form_and_order(n):
    # without jumping back to the common ancestor some of these labellings
    # take minutes; the closed form swaps the anchors (reversing every
    # loop) and permutes the other clique vertices and the loops
    g = cycle_gadget(n, 5, 2)
    _, ell, _, loops = cycle_gadget_layout(n, 5, 2)
    order = 2 * factorial(ell - 2) * factorial(loops)
    form = canonical_form(g)
    for seed in range(5):
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        h = g.relabel(perm)
        assert canonical_form(h) == form
        assert automorphism_order(h) == order


def test_are_isomorphic():
    assert are_isomorphic(path_graph(3), star_graph(2))
    assert not are_isomorphic(path_graph(4), star_graph(3))
    assert not are_isomorphic(path_graph(3), path_graph(4))


FORMS_AND_ORDERS_DIGEST = "7494e1a6903a3fdda73b535ea865a17a7e4346b6745fd97daa8f587de9d6ae5f"


def test_forms_and_orders_digest():
    # pins only what is an isomorphism invariant: the canonical form and
    # |Aut|, of every small class, every certify host and a relabelling
    # of each; generators, paths and positions may change, these may not
    rnd = random.Random(2014)
    h = hashlib.sha256()
    for g in [*_small_classes(7, 7), *_certify_hosts()]:
        perm = list(range(g.n))
        rnd.shuffle(perm)
        for x in (g, g.relabel(perm)):
            h.update(f"{canonical_graph6(x)} {automorphism_order(x)}\n".encode())
    assert h.hexdigest() == FORMS_AND_ORDERS_DIGEST


CANONICAL_SEARCH_DIGEST = "03048473ffcd56bcf46d249051bffcebbfbb84db04c7fca7d97206a1fde3fbf6"


def test_canonical_search_digest():
    # pins positions, encodings, automorphisms and base paths, so a change
    # to the search or its refinement that reorders cells shows here
    h = hashlib.sha256()
    for g in [*_small_classes(7, 7), *_certify_hosts()]:
        h.update(f"{_canonical_search(g)}\n".encode())
    assert h.hexdigest() == CANONICAL_SEARCH_DIGEST


def _full_queue_refine(rows, cells):
    """_refine before it took a queue: every cell starts as a splitter.
    It also drops the one-vertex shortcut and splits every cell by its
    count of neighbours in the splitter."""
    n = len(rows)
    cells = list(cells)
    queue = list(cells)
    while queue and len(cells) < n:
        splitter = queue.pop()
        new_cells = []
        for cell in cells:
            groups = {}
            for v in range(n):
                if cell >> v & 1:
                    key = (rows[v] & splitter).bit_count()
                    groups[key] = groups.get(key, 0) | 1 << v
            parts = [groups[key] for key in sorted(groups)]
            new_cells += parts
            if len(parts) > 1:
                queue += parts
        cells = new_cells
    return cells


def test_refining_from_the_split_cells_matches_full_refinement(monkeypatch):
    # the search refines a child only by the cells its individualisation
    # made; every call must give the partition a full queue gives
    refine = canon._refine
    calls = 0

    def checked(rows, cells, queue):
        nonlocal calls
        calls += 1
        got = refine(rows, cells, queue)
        assert got == _full_queue_refine(rows, cells), (rows, cells, queue)
        return got

    monkeypatch.setattr(canon, "_refine", checked)
    hosts = [*_small_classes(6, 6), *_certify_hosts()]
    for g in hosts:
        _clear_canon_caches()
        _canonical_search(g)
    _clear_canon_caches()
    assert calls > 2 * len(hosts)


def _large_certify_instances():
    """The family instances the certify benchmark builds on 21..30
    vertices, above the size its own relabelling check reaches."""
    yield dom_turan(30, 5)
    for n in range(21, 25):
        for r in range(3, 14):
            if n % path_component_size(r) == 0:
                yield path_family(n, r)
        for r in (2, 3, 4, 5):
            if n % (2 * r - 1) == 0:
                yield star_family(n, r)
        for r, p in ((5, 2), (6, 3), (7, 4), (5, 3), (6, 4), (7, 5)):
            if (n - r) % p == 0 and (n - r) // p >= 2:
                yield cycle_gadget(n, r, p)
        for r in (3, 4, 5):
            if n % (2 * r) == 0:
                yield bridge_family(_clique_pair(r), n)


def test_large_certify_hosts_keep_form_and_order_under_relabelling():
    rnd = random.Random(30)
    hosts = list(_large_certify_instances())
    assert len(hosts) == 20
    for g in hosts:
        want = canonical_graph6(g), automorphism_order(g)
        for _ in range(3):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            h = g.relabel(perm)
            assert (canonical_graph6(h), automorphism_order(h)) == want, (g, perm)


@pytest.mark.parametrize(
    "g, leaves, order",
    [
        (empty_graph(40), 1, factorial(40)),
        (complete_graph(40), 1, factorial(40)),
        (star_graph(39), 1, factorial(39)),
        # the side swap is no product of twin swaps, so a second leaf finds it
        (complete_bipartite(20, 20), 2, 2 * factorial(20) ** 2),
    ],
    ids=["E40", "K40", "S39", "K20,20"],
)
def test_twin_graphs_reach_one_leaf_per_non_twin_symmetry(g, leaves, order, monkeypatch):
    # every leaf encodes its partition with _relabelled, once
    encode = canon._relabelled
    seen = 0

    def counted(rows, pos):
        nonlocal seen
        seen += 1
        return encode(rows, pos)

    monkeypatch.setattr(canon, "_relabelled", counted)
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    h = g.relabel(perm)
    form = canonical_form(g)
    _clear_canon_caches()
    seen = 0
    assert (canonical_form(h), automorphism_order(h)) == (form, order)
    assert seen == leaves


def _twin_heavy_hosts():
    """Hosts on 40..64 vertices made mostly of twins, each with its |Aut|.
    dom_turan(n, r) is K_{r-2} joined to a perfect matching on n - r + 2
    vertices when that is even."""
    f = factorial
    return [
        (dom_turan(60, 6), f(4) * 2 ** 28 * f(28)),
        (dom_turan(41, 3), 2 ** 20 * f(20)),
        (turan(64, 5), f(4) * f(13) ** 4 * f(12)),
        (disjoint_union([complete_graph(5)] * 8), f(5) ** 8 * f(8)),
        (disjoint_union([star_graph(7)] * 8), f(7) ** 8 * f(8)),
        (star_family(45, 3), (2 * 6) ** 9 * f(9)),
        (join(complete_graph(10), empty_graph(30)), f(10) * f(30)),
        (complete_bipartite(20, 30), f(20) * f(30)),
    ]


def test_twin_heavy_hosts_keep_form_and_order_under_relabelling():
    rnd = random.Random(64)
    for g, order in _twin_heavy_hosts():
        want = canonical_graph6(g), order
        assert automorphism_order(g) == order, g
        for _ in range(3):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            h = g.relabel(perm)
            assert (canonical_graph6(h), automorphism_order(h)) == want, (g, perm)

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from domsat import (
    Graph,
    all_classes,
    are_isomorphic,
    bridges,
    canonical_form,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    component_graphs,
    components,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    is_acyclic,
    is_connected,
    is_k_connected,
    is_k_edge_connected,
    join,
    path_graph,
    star_graph,
)
from domsat.graphs import _bits, is_star


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # bit only in the lower-indexed row
    with pytest.raises(ValueError):
        Graph(2, (0, 1))  # bit only in the higher-indexed row
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0))  # bit outside 0..n-1
    with pytest.raises(ValueError):
        Graph(3, (0, 0))  # row count differs from n
    with pytest.raises(ValueError):
        from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(2, [(0, 2)])


def test_graph_stores_rows_as_a_tuple_of_ints():
    rows = [2, 1]
    g = Graph(2, rows)
    rows[0] = 0
    assert g.rows == (2, 1) and type(g.rows) is tuple
    assert g == path_graph(2) and hash(g) == hash(path_graph(2))
    assert canonical_form(g) == canonical_form(path_graph(2))
    for n, rows in ((2, (2.0, 1)), (2.0, (2, 1)), (2, ("2", 1))):
        with pytest.raises(ValueError):
            Graph(n, rows)


def test_derived_graphs_pass_full_validation():
    # derived graphs and canonical forms skip validation; rebuilding them
    # through Graph(...) must accept them and give an equal, equal-hash graph
    rnd = random.Random(20261018)
    for _ in range(60):
        n = rnd.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = from_edges(n, [e for e in pairs if rnd.random() < 0.4])
        perm = list(range(n))
        rnd.shuffle(perm)
        derived = [g.relabel(perm), g.complement(), g.subgraph(rnd.randrange(1, 1 << n))]
        derived.append(canonical_form(g))
        derived += [g.add_edge(u, v) for u, v in g.non_edges()]
        derived += [g.remove_edge(u, v) for u, v in g.edges()]
        for h in derived:
            rebuilt = Graph(h.n, h.rows)
            assert rebuilt == h and hash(rebuilt) == hash(h)
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    with pytest.raises(ValueError):
        g.add_edge(0, 3)  # vertex outside 0..n-1
    with pytest.raises(ValueError):
        g.relabel([0, 0, 1])
    with pytest.raises(ValueError):
        g.relabel([0, 1])


def test_graph_fields_cannot_be_assigned_or_deleted():
    g = path_graph(3)
    for field, value in (("n", 4), ("rows", (0, 0, 0))):
        with pytest.raises(AttributeError):
            setattr(g, field, value)
        with pytest.raises(AttributeError):
            delattr(g, field)
    with pytest.raises(AttributeError):
        g.label = "P3"  # no other attribute either
    assert g == path_graph(3)
    # derived graphs are built through the slot setters and are just as frozen
    with pytest.raises(AttributeError):
        g.add_edge(0, 2).n = 1


def test_graph_equality_and_hash_follow_n_and_rows():
    g = cycle_graph(5)
    h = from_edges(5, [(4, 0), (3, 4), (2, 3), (1, 2), (0, 1)])
    assert g == h and hash(g) == hash(h)
    assert hash(g) == hash((g.n, g.rows))
    assert g != (g.n, g.rows) and (g.n, g.rows) != g
    assert g != empty_graph(5) and g != cycle_graph(6)
    assert len({g, h, g.relabel([1, 2, 3, 4, 0]), empty_graph(5)}) == 2


def test_graph_copy_deepcopy_and_pickle_round_trip():
    for g in (empty_graph(1), path_graph(4), complete_bipartite(3, 4), complete_graph(64)):
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert type(twin) is Graph
            assert twin == g and hash(twin) == hash(g)
            with pytest.raises(AttributeError):
                twin.n = 2


def test_basic_queries():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edge_count == 3
    assert g.degrees() == (1, 2, 2, 1)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.non_edges() == [(0, 2), (0, 3), (1, 3)]
    assert g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.add_edge(0, 2).edge_count == 4
    assert g.remove_edge(1, 2).edge_count == 2
    with pytest.raises(ValueError):
        g.add_edge(0, 1)
    with pytest.raises(ValueError):
        g.remove_edge(0, 2)


def test_join_examples():
    assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)
    assert join(complete_graph(2), complete_graph(2)) == complete_graph(4)
    d53 = join(complete_graph(1), disjoint_union([complete_graph(2)] * 2))
    assert d53.n == 5 and d53.edge_count == 6


@given(graphs(max_n=6), graphs(max_n=6))
@settings(max_examples=60, deadline=None)
def test_join_edge_count_identity(g, h):
    assert join(g, h).edge_count == g.edge_count + h.edge_count + g.n * h.n


def test_complete_multipartite_rejects_bad_sizes():
    for sizes in ([], [2, 0], [40, 30]):
        with pytest.raises(ValueError):
            complete_multipartite(sizes)


def test_disjoint_union():
    two_p3 = disjoint_union([path_graph(3), path_graph(3)])
    assert two_p3.n == 6 and two_p3.edge_count == 4
    assert len(components(two_p3)) == 2
    assert disjoint_union([complete_graph(2)]) == complete_graph(2)
    m7 = disjoint_union([complete_graph(3), complete_graph(2), complete_graph(2)])
    assert m7.n == 7 and m7.edge_count == 5


def test_components_and_acyclicity():
    g = disjoint_union([cycle_graph(3), path_graph(2), empty_graph(1)])
    assert [m.bit_count() for m in components(g)] == [3, 2, 1]
    assert not is_acyclic(g)
    assert is_acyclic(disjoint_union([path_graph(4), path_graph(3)]))
    assert [c.n for c in component_graphs(g)] == [3, 2, 1]


def test_bridges_examples():
    assert bridges(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]
    assert bridges(cycle_graph(5)) == []
    assert len(bridges(star_graph(4))) == 4
    # bridge endpoints are separated once the bridge goes
    g = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert bridges(g) == []
    g2 = g.add_edge(1, 3)  # still 2-edge-connected
    assert bridges(g2) == []


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=80, deadline=None)
def test_bridges_match_naive_removal(g):
    naive = [
        e
        for e in g.edges()
        if len(components(g.remove_edge(*e))) > len(components(g))
    ]
    assert bridges(g) == naive


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60, deadline=None)
def test_bridge_separates_endpoints(g):
    for u, v in bridges(g):
        cut = g.remove_edge(u, v)
        comp_of_u = next(m for m in components(cut) if m >> u & 1)
        assert not comp_of_u >> v & 1


def test_k_connected_examples():
    assert is_k_connected(cycle_graph(5), 2)
    assert not is_k_connected(path_graph(4), 2)
    assert is_k_connected(complete_graph(4), 3)
    assert not is_k_connected(complete_graph(4), 4)
    assert is_k_connected(empty_graph(1), 0)
    assert not is_k_connected(empty_graph(1), 1)
    with pytest.raises(ValueError):
        is_k_connected(complete_graph(3), -1)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60, deadline=None)
def test_one_connected_iff_connected(g):
    assert is_k_connected(g, 1) == (is_connected(g) and g.n >= 2)


def test_k_edge_connected_examples():
    assert is_k_edge_connected(cycle_graph(6), 2)
    assert not is_k_edge_connected(disjoint_union([complete_graph(3)] * 2), 1)
    assert is_k_edge_connected(complete_graph(4).remove_edge(0, 1), 2)
    # a lone vertex cannot be disconnected by removing edges
    assert is_k_edge_connected(empty_graph(1), 7)


@given(graphs(min_n=2, max_n=8), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_whitney_chain(g, k):
    # vertex connectivity <= edge connectivity <= minimum degree
    if is_k_connected(g, k):
        assert is_k_edge_connected(g, k)
    if is_k_edge_connected(g, k):
        assert g.min_degree() >= k


def _min_edge_boundary(g):
    """Fewest edges leaving a proper nonempty vertex set (None on K_1)."""
    full = g.vertex_mask
    return min(
        (
            sum((g.rows[v] & full & ~side).bit_count() for v in _bits(side))
            for side in range(1, full, 2)  # vertex 0 stays on the side
        ),
        default=None,
    )


@given(graphs(min_n=1, max_n=8), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_edge_connectivity_matches_min_edge_boundary(g, k):
    boundary = _min_edge_boundary(g)
    assert is_k_edge_connected(g, k) == (boundary is None or k <= boundary)


def test_is_star_matches_isomorphism_to_a_star():
    for n in range(2, 8):
        for g in all_classes(n):
            if g.edge_count:
                assert is_star(g) == (n >= 3 and are_isomorphic(g, star_graph(n - 1)))


def test_relabel_and_subgraph():
    g = path_graph(4)
    assert g.relabel([3, 2, 1, 0]) == g
    h = g.relabel([1, 0, 2, 3])
    assert h.edges() == [(0, 1), (0, 2), (2, 3)]
    sub = g.subgraph(0b1011)  # vertices 0, 1, 3
    assert sub.n == 3 and sub.edges() == [(0, 1)]
    assert complete_bipartite(2, 3).degrees() == (3, 3, 2, 2, 2)

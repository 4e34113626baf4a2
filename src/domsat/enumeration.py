"""Isomorph-free enumeration of small graphs by edge count.

Graphs on n vertices are generated level by level by canonical
augmentation (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26, 1998).  Each class with m-1 edges is extended by one
non-edge per orbit of its automorphism group on non-edges, since the
children in one orbit are isomorphic.  A child H = parent + uv is kept
only if uv lies in the Aut(H)-orbit of H's canonical edge: among the
edges whose degree key (d_a + d_b, d_a * d_b) is largest, the one whose
pair of canonical labels is least.  H minus its canonical edge has one
class, so exactly one parent, and within it one non-edge orbit, passes
the test: every class is produced exactly once and needs no
deduplication.

Three sound filters reject almost every child the orbit test would
reject before it is labelled.  (1) Adding uv lowers no edge's key, so uv
can be top only if its key in H reaches the parent's largest edge key;
the test is Aut(parent)-invariant, so the non-edges that pass are closed
under the group and each orbit keeps its first pair.  (2) Only the edges
at u or v change their key, so uv is top exactly when none of those gets
a larger one.  (3) The root cells of H's canonical search (canon's
_root_cells, an equitable partition whose order every leaf keeps) give
each vertex a range of canonical labels, so the canonical edge's smaller
label lies in the first root cell that holds an end of a top edge;
automorphisms keep root cells, so uv is rejected when neither end lies
there.  The search reads the same cached root, so a kept child is
refined once.

A child that is labelled gets one canonical search, and _canonical_entry
reads everything from it: the positions and automorphisms for the test
and, when the child is kept, its canonical form and the generators (twin
swaps and the automorphisms the search's leaves gave), which it
relabels onto the form itself.  The empty graph goes through the same
step with nothing to test.  Both orbit steps call canon's pair-orbit
routine (see canon.py); they depend only on the group, not on which
generators.  levels(n) walks the levels in graph6 order and holds only
the level it is extending and that level's generators; each caller
makes its own walk, and nothing outlives it.

The independent anti-hallucination oracle lives in oracle.py and shares
no code with this path.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Sequence

from .canon import _canonical_search, _pair_orbit_firsts, _pair_orbit_roots, _root_cells
from .graph6 import graph6_encode
from .graphs import Graph, _trusted_graph, empty_graph, is_connected

MAX_ENUM_VERTICES = 10


def _key_tops(
    parent: Graph, gens: Sequence[Sequence[int]]
) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """(u, v, top) for each non-edge uv, the first of its orbit under
    <gens> = Aut(parent), whose degree key (d_a + d_b, d_a * d_b) is
    largest in H = parent + uv; top is H's edges of that key, in edges()
    order, then uv."""
    deg = parent.degrees()
    edges = parent.edges()
    floor = (0, 0)  # the parent's largest key; adding uv lowers no key
    most = [0] * parent.n  # most[x]: the largest degree of a neighbour of x
    for a, b in edges:
        da, db = deg[a], deg[b]
        if (da + db, da * db) > floor:
            floor = (da + db, da * db)
        if db > most[a]:
            most[a] = db
        if da > most[b]:
            most[b] = da
    keys = {}
    for u, v in parent.non_edges():
        key = (deg[u] + deg[v] + 2, (deg[u] + 1) * (deg[v] + 1))
        if key >= floor:
            keys[u, v] = key
    for u, v in _pair_orbit_firsts(list(keys), gens):
        key = keys[u, v]
        du, dv = deg[u] + 1, deg[v] + 1
        # only the edges at u or v change key, and at each end the edge to
        # the neighbour of largest degree has the largest
        if (du + most[u], du * most[u]) > key or (dv + most[v], dv * most[v]) > key:
            continue  # another parent makes this child
        d = list(deg)
        d[u] = du
        d[v] = dv
        yield u, v, [(a, b) for a, b in edges if (d[a] + d[b], d[a] * d[b]) == key] + [(u, v)]


def _in_first_cell(g: Graph, top: list[tuple[int, int]]) -> bool:
    """Whether top's last edge has an end in the first root cell of g that
    holds an end of an edge of top.  When it has none, it is not in the
    Aut(g)-orbit of the canonical edge."""
    ends = 0
    for a, b in top:
        ends |= 1 << a | 1 << b
    first = next(c for c in _root_cells(g) if c & ends)
    u, v = top[-1]
    return bool(first & (1 << u | 1 << v))


def _canonical_entry(
    g: Graph, top: list[tuple[int, int]]
) -> tuple[Graph, list[tuple[int, ...]]] | None:
    """g's canonical form and generators of its automorphism group
    relabelled onto it, from one canonical search; None when top's last
    edge is not in the Aut(g)-orbit of the canonical edge, the edge of
    top whose pair of canonical labels is least.  top must be closed
    under Aut(g); an empty top asks nothing.  Only the group the
    generators generate, with the form, is stable: which generators
    come back depends on the search."""
    pos, enc, autos, _ = _canonical_search(g)
    if top:
        labelled = [(pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a]) for a, b in top]
        roots = _pair_orbit_roots(top, autos)
        if roots[-1] != roots[labelled.index(min(labelled))]:
            return None
    order = sorted(range(g.n), key=pos.__getitem__)  # old vertex at each new label
    # a in g's labels becomes b = pos a pos^-1: b[pos[v]] = pos[a[v]]
    return _trusted_graph(g.n, enc), [tuple(pos[a[v]] for v in order) for a in autos]


def levels(n: int) -> Iterator[list[Graph]]:
    """Level m = 0, 1, ..., C(n, 2) of the n-vertex classes, each a list of
    canonical representatives in graph6 order.  Level m is built only
    when asked for; a bad n raises at the first one."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_VERTICES} vertices")
    level = [_canonical_entry(empty_graph(n), [])]  # its own canonical form
    while level:  # the complete graph's level has no children
        yield [g for g, _ in level]
        made = []
        for parent, gens in level:
            for u, v, top in _key_tops(parent, gens):
                child = parent.add_edge(u, v)
                if not _in_first_cell(child, top):
                    continue
                entry = _canonical_entry(child, top)
                if entry is not None:
                    made.append(entry)
        made.sort(key=lambda entry: graph6_encode(entry[0]))
        level = made


def enumerate_graphs(n: int, m: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of n-vertex
    m-edge graphs, in a fixed deterministic order.  A bad n or m raises
    at the call, and the level is built there too."""
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"edge count {m} outside 0..{n * (n - 1) // 2}")
    return iter(next(islice(levels(n), m, None)))


def class_count(n: int, m: int) -> int:
    return sum(1 for _ in enumerate_graphs(n, m))


def all_classes(n: int) -> Iterator[Graph]:
    """Every isomorphism class on exactly n vertices, by edge count."""
    for level in levels(n):
        yield from level


def enumerate_trees(n: int) -> list[Graph]:
    """Tree isomorphism classes on n vertices."""
    return [g for g in enumerate_graphs(n, n - 1) if is_connected(g)]

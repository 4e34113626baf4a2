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
deduplication.  The key is an isomorphism invariant, so most children
are rejected before they are canonically labelled.  A child that is
labelled gets one canonical search, and _canonical_entry reads
everything from it: the positions and automorphisms for the test and,
when the child is kept, its canonical form and the generators (twin
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
from typing import Iterator

from .canon import _canonical_search, _pair_orbit_firsts, _pair_orbit_roots
from .graph6 import graph6_encode
from .graphs import Graph, _trusted_graph, empty_graph, is_connected

MAX_ENUM_VERTICES = 10


def _top_key_edges(deg: list[int], edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The edges whose key (d_a + d_b, d_a * d_b) under the degrees deg is
    largest, in the order given.  The key is an isomorphism invariant."""
    keys = [(deg[a] + deg[b], deg[a] * deg[b]) for a, b in edges]
    top = max(keys)
    return [e for e, k in zip(edges, keys) if k == top]


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
            degrees = parent.degrees()
            edges = parent.edges()
            for u, v in _pair_orbit_firsts(parent.non_edges(), gens):
                deg = list(degrees)
                deg[u] += 1
                deg[v] += 1
                # uv goes last, so it ends top exactly when its key is largest;
                # when it is not, another parent makes this child
                top = _top_key_edges(deg, edges + [(u, v)])
                if top[-1] != (u, v):
                    continue
                entry = _canonical_entry(parent.add_edge(u, v), top)
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

"""Isomorphism-free enumeration of small graphs by edge count.

Graphs on n vertices are generated level by level: the classes with m
edges are the canonical forms of the one-edge extensions of the classes
with m-1 edges, deduplicated.  Each class is extended by one non-edge
per orbit of its automorphism group on non-edges, since the children in
one orbit are isomorphic (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  The group comes as the generators that the
canonical labelling search found for the class, which generate all of
it (see canon.py).  Levels are cached per n for the life of the
process and streamed in graph6 order, so repeated sweeps are cheap;
generators are kept for the last level only.  The cache takes no lock:
callers are single-threaded.

The independent anti-hallucination oracle lives in oracle.py and shares
no code with this path.
"""

from __future__ import annotations

from typing import Iterator

from .canon import _orbit_roots, canonical_form_with_generators
from .graph6 import graph6_encode
from .graphs import Graph, empty_graph

MAX_ENUM_VERTICES = 10

Generators = list[tuple[int, ...]]

_levels: dict[int, list[list[Graph]]] = {}
_frontier_gens: dict[int, list[Generators]] = {}  # per class of the last level


def _symmetric_group_gens(n: int) -> Generators:
    """A transposition and an n-cycle: generators of Aut(empty graph)."""
    if n < 2:
        return []
    return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


def _non_edge_orbit_reps(g: Graph, gens: Generators) -> list[tuple[int, int]]:
    """The lexicographically first non-edge of each orbit of <gens>."""
    non_edges = g.non_edges()
    if not gens:
        return non_edges
    index = {e: i for i, e in enumerate(non_edges)}
    on_pairs = []
    for p in gens:
        images = []
        for u, v in non_edges:
            a, b = p[u], p[v]
            images.append(index[(a, b) if a < b else (b, a)])
        on_pairs.append(images)
    roots = _orbit_roots(len(non_edges), on_pairs)
    return [e for i, e in enumerate(non_edges) if roots[i] == i]


def _extend_levels(n: int, m: int) -> list[list[Graph]]:
    levels = _levels.get(n)
    if levels is None:
        levels = _levels[n] = [[empty_graph(n)]]
        _frontier_gens[n] = [_symmetric_group_gens(n)]
    while len(levels) <= m:
        found: dict[Graph, Generators] = {}
        for parent, gens in zip(levels[-1], _frontier_gens[n]):
            for u, v in _non_edge_orbit_reps(parent, gens):
                child, child_gens = canonical_form_with_generators(parent.add_edge(u, v))
                found.setdefault(child, child_gens)
        nxt = sorted(found, key=graph6_encode)
        levels.append(nxt)
        _frontier_gens[n] = [found[g] for g in nxt]
    return levels


def enumerate_graphs(n: int, m: int) -> Iterator[Graph]:
    """One canonical representative per isomorphism class of n-vertex
    m-edge graphs, in a fixed deterministic order."""
    if not 1 <= n <= MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_VERTICES} vertices")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"edge count {m} outside 0..{n * (n - 1) // 2}")
    yield from _extend_levels(n, m)[m]


def class_count(n: int, m: int) -> int:
    return len(_extend_levels(n, m)[m])


def all_classes(n: int) -> Iterator[Graph]:
    """Every isomorphism class on exactly n vertices, by edge count."""
    for m in range(n * (n - 1) // 2 + 1):
        yield from enumerate_graphs(n, m)


def enumerate_trees(n: int) -> list[Graph]:
    """Tree isomorphism classes on n vertices."""
    from .graphs import is_connected

    if n == 1:
        return [empty_graph(1)]
    return [g for g in enumerate_graphs(n, n - 1) if is_connected(g)]

"""Backtracking subgraph-embedding search.

An embedding maps pattern vertices injectively into a host so that every
pattern edge lands on a host edge (non-induced semantics: extra host
edges among image vertices are fine).  This kernel powers every
saturation predicate: existence, existence through a prescribed host
edge, and exact copy counting.
"""

from __future__ import annotations

from functools import lru_cache
from math import inf

from .canon import automorphism_order
from .graphs import Graph


@lru_cache(maxsize=1024)
def _search_order(
    pattern: Graph, prefix: tuple[int, ...] = ()
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Search order and earlier-neighbor positions for a pattern.

    The order starts with prefix; after it, vertices are ordered
    component by component, highest degree first, then by how many
    already-ordered neighbors they have; isolated vertices go last.
    Returns (order, back) where back[i] holds the positions j < i whose
    vertex order[j] is adjacent to order[i].
    """
    degs = pattern.degrees()
    order = list(prefix)
    placed = sum(1 << v for v in prefix)
    while len(order) < pattern.n:
        remaining = [v for v in range(pattern.n) if not placed >> v & 1]
        # most constrained next: maximize (placed neighbors, degree)
        best = max(
            remaining,
            key=lambda v: ((pattern.rows[v] & placed).bit_count(), degs[v], -v),
        )
        order.append(best)
        placed |= 1 << best
    back = tuple(
        tuple(j for j in range(i) if pattern.has_edge(order[i], order[j]))
        for i in range(len(order))
    )
    return tuple(order), back


def is_valid_embedding(pattern: Graph, host: Graph, mapping: tuple[int, ...]) -> bool:
    """Check the embedding invariants: injective and edge-preserving."""
    if len(mapping) != pattern.n:
        return False
    if len(set(mapping)) != pattern.n:
        return False
    if any(not 0 <= x < host.n for x in mapping):
        return False
    return all(host.has_edge(mapping[a], mapping[b]) for a, b in pattern.edges())


def _search(
    rows: tuple[int, ...],
    order: tuple[int, ...],
    back: tuple[tuple[int, ...], ...],
    deg_ok: tuple[int, ...],
    image: list[int],
    depth: int,
    used: int,
    limit: float,
) -> int:
    """Count embeddings extending image[:depth], stopping at limit.

    image[i] is the host vertex of pattern vertex order[i] and used is
    the bitmask of those host vertices.  When the count reaches limit,
    image holds the embedding that reached it.
    """
    if depth == len(order):
        return 1
    mask = deg_ok[order[depth]] & ~used
    for j in back[depth]:
        mask &= rows[image[j]]
        if not mask:
            return 0
    found = 0
    while mask:
        low = mask & -mask
        image[depth] = low.bit_length() - 1
        found += _search(rows, order, back, deg_ok, image, depth + 1, used | low, limit - found)
        if found >= limit:
            return found
        mask ^= low
    return found


def _mapping(order: tuple[int, ...], image: list[int]) -> tuple[int, ...]:
    out = [0] * len(order)
    for i, pv in enumerate(order):
        out[pv] = image[i]
    return tuple(out)


def _deg_masks(pattern: Graph, host: Graph) -> tuple[int, ...]:
    """deg_ok[pv] = host vertices with degree >= deg(pv)."""
    hdegs = host.degrees()
    out = []
    for pv in range(pattern.n):
        need = pattern.degree(pv)
        acc = 0
        for hv, d in enumerate(hdegs):
            if d >= need:
                acc |= 1 << hv
        out.append(acc)
    return tuple(out)


def embedding_exists(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """First embedding of pattern into host, or None.

    The returned tuple maps pattern vertex i to host vertex tuple[i].
    """
    if pattern.n > host.n or pattern.edge_count > host.edge_count:
        return None
    deg_ok = _deg_masks(pattern, host)
    if any(not m for m in deg_ok):
        return None
    order, back = _search_order(pattern)
    image = [0] * pattern.n
    if _search(host.rows, order, back, deg_ok, image, 0, 0, 1):
        return _mapping(order, image)
    return None


def copy_through_edge(
    pattern: Graph, host: Graph, e: tuple[int, int]
) -> tuple[int, ...] | None:
    """Embedding of pattern whose image edge set contains host edge e.

    Every pattern edge is anchored onto e in both orientations before the
    search extends, so existence is decided without enumerating copies.
    Raises ValueError when e is not an edge of host.
    """
    u, v = e
    if not host.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the host")
    if pattern.n > host.n:
        return None
    deg_ok = _deg_masks(pattern, host)
    image = [0] * pattern.n
    for a, b in pattern.edges():
        for pa, pb, hu, hv in ((a, b, u, v), (a, b, v, u)):
            if pattern.degree(pa) > host.degree(hu) or pattern.degree(pb) > host.degree(hv):
                continue
            order, back = _search_order(pattern, (pa, pb))
            image[0], image[1] = hu, hv
            if _search(host.rows, order, back, deg_ok, image, 2, (1 << hu) | (1 << hv), 1):
                return _mapping(order, image)
    return None


def count_embeddings(pattern: Graph, host: Graph) -> int:
    """Number of injective edge-preserving maps pattern -> host."""
    if pattern.n > host.n or pattern.edge_count > host.edge_count:
        return 0
    deg_ok = _deg_masks(pattern, host)
    if any(not m for m in deg_ok):
        return 0
    order, back = _search_order(pattern)
    return _search(host.rows, order, back, deg_ok, [0] * pattern.n, 0, 0, inf)


def count_copies(pattern: Graph, host: Graph) -> int:
    """Number of distinct subgraphs of host isomorphic to pattern.

    Computed as embeddings / |Aut(pattern)|, which identifies copies by
    their vertex-and-edge image; for patterns without isolated vertices
    this coincides with counting distinct edge sets.
    """
    emb = count_embeddings(pattern, host)
    if emb == 0:
        return 0
    aut = automorphism_order(pattern)
    copies, rem = divmod(emb, aut)
    if rem:
        raise AssertionError("embedding count not divisible by automorphism order")
    return copies

"""Parameterized builders for the extremal and witness families.

Every builder emits a deterministic vertex labeling (documented per
function) so serialized outputs are byte-stable.  Each family's claimed
predicate and pattern live in the CLI's family table (cli.FAMILIES), and
`domsat construct --certify` re-runs the claim against the output.

The block families (paths, K_{r-1,r} stars, the bridge family's K_s
fallback) share one assembler, _blocks: equal blocks, the last absorbing
the remainder.  near_matching is the only matching.
"""

from __future__ import annotations

from typing import Callable

from .graphs import (
    Graph,
    bridges,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    components,
    disjoint_union,
    from_edges,
    join,
    path_graph,
)
from .predicates import is_dom_sat


class ConstructionError(ValueError):
    """Parameters outside a builder's feasible range."""


def near_matching(k: int) -> Graph:
    """Near-perfect matching on k vertices.

    Even k gives (k/2) disjoint edges; odd k gives a triangle on 0,1,2
    plus a matching on the rest.  Matched pairs are (0,1), (2,3), ...
    """
    if k < 2:
        raise ConstructionError("near-matching needs at least 2 vertices")
    if k % 2 == 0:
        return from_edges(k, [(2 * i, 2 * i + 1) for i in range(k // 2)])
    edges = [(0, 1), (0, 2), (1, 2)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(1, (k - 1) // 2)]
    return from_edges(k, edges)


def dom_turan(n: int, r: int) -> Graph:
    """Clique on r-2 vertices joined to a near-matching on the rest.

    Vertices 0..r-3 form the clique; the remaining n-r+2 vertices carry
    the near-matching.  Asymptotically extremal for clique dom-sat.
    """
    if r < 3:
        raise ConstructionError("clique order must be at least 3")
    if n < r:
        raise ConstructionError("need at least r vertices")
    return join(complete_graph(r - 2), near_matching(n - r + 2))


def turan(n: int, r: int) -> Graph:
    """Balanced complete r-partite graph on n vertices."""
    if not 1 <= r <= n:
        raise ConstructionError("need 1 <= r <= n")
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    return complete_multipartite(sizes)


def _blocks(n: int, size: int, block: Callable[[int], Graph], pad: bool, unit: str) -> Graph:
    """Disjoint blocks block(size) on consecutive labels; with pad, the
    last is block(size + remainder), so it has fewer than 2*size vertices."""
    q, rem = divmod(n, size)
    if q < 1:
        raise ConstructionError(f"need at least {size} vertices for one {unit}")
    if rem and not pad:
        raise ConstructionError(
            f"{n} is not a multiple of the {unit} size {size}; pad to absorb the remainder"
        )
    parts = [block(size)] * q
    if rem:
        parts[-1] = block(size + rem)
    return disjoint_union(parts)


def path_component_size(r: int) -> int:
    """Component order for the extremal path family: 3j for r = 2j+1,
    3j+1 for r = 2j+2."""
    if r < 3:
        raise ConstructionError("path pattern needs at least 3 vertices")
    if r % 2 == 1:
        return 3 * (r - 1) // 2
    return 3 * (r - 2) // 2 + 1


def path_family(n: int, r: int, pad: bool = False) -> Graph:
    """Disjoint paths, each on path_component_size(r) vertices.

    Components occupy consecutive labels.  Without pad, n must be a
    multiple of the component size; with pad, one component absorbs the
    remainder (size < twice the component size).
    """
    return _blocks(n, path_component_size(r), path_graph, pad, "component")


def cycle_gadget_layout(n: int | None, r: int, loop_len: int | None = None) -> tuple[int, int, int, int]:
    """Resolve (n, clique size, loop length, loop count) for cycle_gadget."""
    if r < 4:
        raise ConstructionError("cycle pattern needs at least 4 vertices")
    p = r - 3 if loop_len is None else loop_len
    if p < 1:
        raise ConstructionError("loop length must be positive")
    if n is None:
        n = r + 2 * p
    # unique clique size in [r, r+p-1] congruent to n mod p
    ell = r + (n - r) % p
    loops, rem = divmod(n - ell, p)
    if rem or loops < 1:
        raise ConstructionError(
            f"no feasible clique size for n={n}, r={r}, loop length {p}"
        )
    return n, ell, p, loops


def cycle_gadget(n: int | None, r: int, loop_len: int | None = None) -> Graph:
    """Clique with pendant loops: the cycle dom-sat witness.

    Vertices 0..ell-1 form the clique with anchors 0 and 1; loop t
    occupies ell + t*p .. ell + t*p + p - 1 as a path, its first vertex
    tied to anchor 0 and its last to anchor 1 (a single-vertex loop ties
    to both anchors).  Default loop length r-3 realizes the upper bound;
    loop length r-2 is the negative control that breaks semi-saturation.
    """
    n, ell, p, loops = cycle_gadget_layout(n, r, loop_len)
    edges = [(u, v) for u in range(ell) for v in range(u + 1, ell)]
    for t in range(loops):
        base = ell + t * p
        edges += [(base + i, base + i + 1) for i in range(p - 1)]
        edges.append((0, base))
        edges.append((1, base + p - 1))
    return from_edges(n, edges)


def star_family(n: int, r: int, pad: bool = False) -> Graph:
    """Disjoint complete bipartite blocks K_{r-1,r}.

    Block i occupies labels i*(2r-1)..(i+1)*(2r-1)-1 with the (r-1)-side
    first.  With pad, the final block grows its r-side by the remainder.
    """
    if r < 2:
        raise ConstructionError("need r >= 2")
    return _blocks(n, 2 * r - 1, lambda k: complete_bipartite(r - 1, k - r + 1), pad, "block")


def star_plus_pair(s: int) -> tuple[Graph, Graph]:
    """The appended-edge star G_s and its dom-sat witness block H_s.

    G_s: center 0, leaves 1..s-2, tail s-1 attached to leaf 1.
    H_s: adjacent centers 0, 1; leaves 2..s-1 on center 0 and
    s..2s-3 on center 1.
    """
    if s < 4:
        raise ConstructionError("need s >= 4")
    g_edges = [(0, i) for i in range(1, s - 1)] + [(1, s - 1)]
    g_s = from_edges(s, g_edges)
    h_edges = [(0, 1)]
    h_edges += [(0, i) for i in range(2, s)]
    h_edges += [(1, i) for i in range(s, 2 * s - 2)]
    h_s = from_edges(2 * s - 2, h_edges)
    return g_s, h_s


def _clique_pair(r: int) -> Graph:
    """Two r-cliques on 0..r-1 and r..2r-1 joined by the edge (r-1, r)."""
    return disjoint_union([complete_graph(r)] * 2).add_edge(r - 1, r)


def bridge_pair_order(f: Graph) -> int | None:
    """Smallest r such that some bridge of f splits it into components
    of at most r vertices each; None when f has no bridge."""
    brs = bridges(f)
    if not brs:
        return None
    best = None
    for u, v in brs:
        cut = f.remove_edge(u, v)
        largest = max(mask.bit_count() for mask in components(cut))
        if best is None or largest < best:
            best = largest
    return best


def bridge_family(f: Graph, n: int) -> Graph:
    """Dom-sat witness for a pattern with a bridge.

    Preferred form: disjoint pairs of r-cliques joined by one edge, with
    r the best bridge split of f (pair blocks at labels 2r*t..2r*t+2r-1,
    the joining edge between vertices r-1 and r of the block).  The pair
    form is certified against f before it is returned; when it does not
    certify, or n is not a multiple of 2r, disjoint |f|-cliques with one
    oversized block are returned instead.
    """
    r = bridge_pair_order(f)
    if r is None:
        raise ConstructionError("pattern has no bridge")
    if n < f.n:
        raise ConstructionError("need at least as many vertices as the pattern")
    if n % (2 * r) == 0:
        candidate = disjoint_union([_clique_pair(r)] * (n // (2 * r)))
        if is_dom_sat(candidate, f).verdict:
            return candidate
    return _blocks(n, f.n, complete_graph, True, "block")


def neighborhood_scan(f: Graph) -> tuple[int, tuple[int, int]]:
    """Minimal k over edges uw of f with |N(u) | N(w)| = k + 2."""
    if f.edge_count == 0:
        raise ConstructionError("pattern has no edge")
    best_k = None
    best_edge = None
    for u, w in f.edges():
        k = (f.rows[u] | f.rows[w]).bit_count() - 2
        if best_k is None or k < best_k:
            best_k, best_edge = k, (u, w)
    return best_k, best_edge


def _neighborhood_matched(f: Graph, k: int) -> bool:
    """Does the neighborhood family for f, with k from neighborhood_scan,
    match its outside vertices?  Yes when f's minimum degree is k + 1,
    or when k >= 1 and f's least positive degree is k + 1: an isolated
    pattern vertex lands on any spare vertex, so it must not decide."""
    degs = f.degrees()
    return min(degs) == k + 1 or (k >= 1 and min(d for d in degs if d) == k + 1)


def neighborhood_family(f: Graph, n: int, pad: bool = False) -> Graph:
    """Clique on f's order with k nose vertices joined to everything.

    Vertices 0..|f|-1 form the clique; vertices |f|..n-1 are each joined
    to the k designated clique vertices 0..k-1.  When the pattern's
    minimum degree equals k+1, or k >= 1 and its least positive degree
    equals k+1 (isolated pattern vertices aside), the outside vertices
    also carry near_matching(n - |f|), shifted by |f|: consecutive
    pairs, and with pad a triangle on the first three when the outside
    count is odd.
    """
    k, _ = neighborhood_scan(f)
    if n <= f.n:
        raise ConstructionError("need more vertices than the pattern")
    outside = n - f.n
    edges = [(u, v) for u in range(f.n) for v in range(u + 1, f.n)]
    edges += [(c, f.n + i) for c in range(k) for i in range(outside)]
    if _neighborhood_matched(f, k):
        if outside % 2:
            if not pad:
                raise ConstructionError(
                    f"matched variant needs an even number of outside vertices, got {outside}"
                )
            if outside < 3:
                raise ConstructionError("cannot pad a single outside vertex")
        edges += [(f.n + a, f.n + b) for a, b in near_matching(outside).edges()]
    return from_edges(n, edges)

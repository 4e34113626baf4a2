"""Backtracking subgraph-embedding search.

An embedding maps pattern vertices injectively into a host so that every
pattern edge lands on a host edge (non-induced semantics: extra host
edges among image vertices are fine).  Two kernels share one search
order: _search decides existence, which every saturation predicate and
the anchored probes ask, and _count counts, placing every pattern
vertex but the last and adding up the last one's candidates.

One set-up serves unanchored, anchored and counting questions: a _Host
copies a host's rows, counts its degrees and builds its degree masks
once, then answers "is there a copy", "how many", "a copy through edge
uv" and "a copy through uv once added", so a predicate call pays for one
set-up and many searches.

An anchored search maps a pattern arc (ordered edge) onto uv and
extends.  Arcs in one orbit of Aut(pattern) succeed or fail together,
so only the first arc of each orbit is tried, as canon's pair-orbit
routine finds it (McKay and Piperno 2014).  The vertices placed after
the anchor avoid u and v, so adding uv changes only the anchor's degree
test: "through uv once added" runs the same search with deg u + 1 and
deg v + 1 and leaves the host as it is.

Copies are counted once each, not as embeddings divided by |Aut|
(Grochow and Kellis, RECOMB 2007).  Along canon's base v_1..v_d of
the pattern, each v_k must map below every other vertex of its orbit
under the stabilizer of v_1..v_{k-1}; of the |Aut| embeddings onto one
copy exactly one does.  The counting kernel applies each constraint as
a bit-range mask on the candidates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .canon import _base_orbits, _canonical_search, _pair_orbit_firsts
from .graphs import Graph


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


class _Plan(NamedTuple):
    """Per-pattern set-up, shared by every host the pattern meets.

    (order, back) is the unanchored search order.  above and below hold,
    at each position i of that order, the earlier positions j whose
    image must lie below, respectively above, image i: for each base
    point v_k of the pattern's canonical search and each other vertex w
    in its orbit under the stabilizer of v_1..v_{k-1}, image(v_k) <
    image(w), kept at whichever of the two comes later in the order.
    Exactly one embedding of each copy meets them all.  anchors holds,
    for the first arc (x, y) of each Aut-orbit on arcs, (deg x, deg y,
    order, back) with the search order prefixed by (x, y); arcs are
    taken edge by edge in edges() order, (a, b) before (b, a).  Arcs of
    one orbit succeed or fail together, so the first arc to succeed is
    the first of its orbit and is kept: the search finds the copy that
    trying every arc would find.  (b, a) anchored onto uv finds what
    (a, b) anchored onto vu would, since the order after the prefix
    depends only on the prefix's vertex set.  of_degree maps each
    pattern degree to the pattern vertices that have it; it is shared
    through the cache and never written.
    """

    degrees: tuple[int, ...]
    edge_count: int
    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]
    above: tuple[tuple[int, ...], ...]
    below: tuple[tuple[int, ...], ...]
    anchors: tuple
    of_degree: dict[int, tuple[int, ...]]


@lru_cache(maxsize=1024)
def _plan(pattern: Graph) -> _Plan:
    degs = pattern.degrees()
    order, back = _search_order(pattern)
    at = {pv: i for i, pv in enumerate(order)}
    above: list[list[int]] = [[] for _ in order]
    below: list[list[int]] = [[] for _ in order]
    for v, orbit in _base_orbits(pattern):
        for w in orbit:
            i, j = at[v], at[w]
            if i < j:
                above[j].append(i)
            elif j < i:
                below[i].append(j)
    arcs = [arc for a, b in pattern.edges() for arc in ((a, b), (b, a))]
    anchors = tuple(
        (degs[x], degs[y], *_search_order(pattern, (x, y)))
        for x, y in _pair_orbit_firsts(arcs, _canonical_search(pattern)[2])
    )
    of_degree = {d: tuple(pv for pv in range(pattern.n) if degs[pv] == d) for d in set(degs)}
    return _Plan(
        degs, pattern.edge_count, order, back,
        tuple(map(tuple, above)), tuple(map(tuple, below)), anchors, of_degree,
    )


def is_valid_embedding(pattern: Graph, host: Graph, mapping: tuple[int, ...]) -> bool:
    """Check the embedding invariants: int host vertices (bool and float
    entries are refused), injective and edge-preserving."""
    if len(mapping) != pattern.n:
        return False
    if any(type(x) is not int or not 0 <= x < host.n for x in mapping):
        return False
    if len(set(mapping)) != pattern.n:
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
) -> bool:
    """Is there an embedding extending image[:depth]?

    image[i] is the host vertex of pattern vertex order[i] and used is
    the bitmask of those host vertices.  On success image holds the
    first embedding found.
    """
    if depth == len(order):
        return True
    mask = deg_ok[order[depth]] & ~used
    for j in back[depth]:
        mask &= rows[image[j]]
        if not mask:
            return False
    while mask:
        low = mask & -mask
        image[depth] = low.bit_length() - 1
        if _search(rows, order, back, deg_ok, image, depth + 1, used | low):
            return True
        mask ^= low
    return False


def _count(
    rows: tuple[int, ...],
    order: tuple[int, ...],
    back: tuple[tuple[int, ...], ...],
    above: tuple[tuple[int, ...], ...],
    below: tuple[tuple[int, ...], ...],
    deg_ok: tuple[int, ...],
    image: list[int],
    depth: int,
    used: int,
) -> int:
    """Embeddings extending image[:depth] (depth < len(order)) whose
    image at each position i lies above image j for j in above[i] and
    below image j for j in below[i]; the last position is counted, not
    placed."""
    mask = deg_ok[order[depth]] & ~used
    for j in back[depth]:
        mask &= rows[image[j]]
    for j in above[depth]:
        mask &= -(2 << image[j])
    for j in below[depth]:
        mask &= (1 << image[j]) - 1
    if depth + 1 == len(order):
        return mask.bit_count()
    found = 0
    while mask:
        low = mask & -mask
        image[depth] = low.bit_length() - 1
        found += _count(rows, order, back, above, below, deg_ok, image, depth + 1, used | low)
        mask ^= low
    return found


def _mapping(order: tuple[int, ...], image: list[int]) -> tuple[int, ...]:
    out = [0] * len(order)
    for i, pv in enumerate(order):
        out[pv] = image[i]
    return tuple(out)


class _Host:
    """One host set up for many questions about one pattern.

    first and count run the unanchored search, count with or without
    the order constraints that keep one embedding per copy;
    through_edge(u, v) asks for a copy through host edge uv, and
    through_added(u, v) for one through non-edge uv once added, trying
    one anchor per arc orbit of the pattern.  through_added touches
    nothing: the vertices placed after the anchor avoid u and v, so only
    the anchor's degree test sees the new edge.  add commits an edge to
    the host's own copy of the rows, keeping the degrees and degree
    masks in step.  No Graph is built and no argument is validated:
    callers pass pairs of distinct vertices.
    """

    __slots__ = ("plan", "anchors", "rows", "degs", "deg_ok", "image")

    def __init__(self, pattern: Graph, host: Graph) -> None:
        plan = self.plan = _plan(pattern)
        # a pattern with more vertices than the host has no copy anywhere,
        # and an anchored search would try every partial placement to see it
        self.anchors = plan.anchors if pattern.n <= host.n else ()
        self.rows = list(host.rows)
        degs = self.degs = [row.bit_count() for row in host.rows]
        # deg_ok[pv] = host vertices with degree >= deg(pv)
        ge = {d: sum(1 << hv for hv, hd in enumerate(degs) if hd >= d) for d in plan.of_degree}
        self.deg_ok = [ge[d] for d in plan.degrees]
        self.image = [0] * pattern.n

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def _may_embed(self) -> bool:
        """False when the pattern has more vertices or edges than the
        host.  A pattern degree no host vertex meets needs no test here:
        order[0] has the largest pattern degree and the degree masks
        shrink as the degree grows, so its mask is then empty and both
        kernels stop at depth 0."""
        plan, degs = self.plan, self.degs
        return len(plan.order) <= len(degs) and plan.edge_count <= sum(degs) // 2

    def first(self) -> tuple[int, ...] | None:
        """The first embedding in search order, or None."""
        plan, image = self.plan, self.image
        if self._may_embed() and _search(self.rows, plan.order, plan.back, self.deg_ok, image, 0, 0):
            return _mapping(plan.order, image)
        return None

    def count(self, copies: bool = False) -> int:
        """Embeddings of the pattern into the host; with copies, only
        those meeting the plan's order constraints, one per copy."""
        plan = self.plan
        if not self._may_embed():
            return 0
        free = ((),) * len(plan.order)
        above, below = (plan.above, plan.below) if copies else (free, free)
        return _count(self.rows, plan.order, plan.back, above, below, self.deg_ok, self.image, 0, 0)

    def _through(self, u: int, v: int, du: int, dv: int) -> tuple[int, ...] | None:
        """First copy mapping an anchor arc onto uv when u and v have
        degrees du and dv, skipping an anchor whose pattern degrees
        they cannot meet."""
        rows, deg_ok, image = self.rows, self.deg_ok, self.image
        used = (1 << u) | (1 << v)
        for dx, dy, order, back in self.anchors:
            if dx > du or dy > dv:
                continue
            image[0], image[1] = u, v
            if _search(rows, order, back, deg_ok, image, 2, used):
                return _mapping(order, image)
        return None

    def through_edge(self, u: int, v: int) -> tuple[int, ...] | None:
        """Embedding whose image edge set contains edge uv, or None."""
        return self._through(u, v, self.degs[u], self.degs[v])

    def through_added(self, u: int, v: int) -> tuple[int, ...] | None:
        """through_edge(u, v) in host + uv, for a non-edge uv."""
        return self._through(u, v, self.degs[u] + 1, self.degs[v] + 1)

    def add(self, u: int, v: int) -> None:
        """Add non-edge uv; each end joins the masks its new degree meets."""
        rows, degs, deg_ok = self.rows, self.degs, self.deg_ok
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        for w in (u, v):
            d = degs[w] = degs[w] + 1
            for pv in self.plan.of_degree.get(d, ()):
                deg_ok[pv] |= 1 << w


def embedding_exists(pattern: Graph, host: Graph) -> tuple[int, ...] | None:
    """First embedding of pattern into host, or None.

    The returned tuple maps pattern vertex i to host vertex tuple[i].
    """
    return _Host(pattern, host).first()


def copy_through_edge(
    pattern: Graph, host: Graph, e: tuple[int, int]
) -> tuple[int, ...] | None:
    """Embedding of pattern whose image edge set contains host edge e.

    One pattern arc per Aut-orbit is anchored onto e before the search
    extends, so existence is decided without enumerating copies.
    Raises ValueError when e is not an edge of host.
    """
    u, v = e
    if not (0 <= u < host.n and 0 <= v < host.n and host.has_edge(u, v)):
        raise ValueError(f"({u}, {v}) is not an edge of the host")
    return _Host(pattern, host).through_edge(u, v)


def count_embeddings(pattern: Graph, host: Graph) -> int:
    """Number of injective edge-preserving maps pattern -> host."""
    return _Host(pattern, host).count()


def count_copies(pattern: Graph, host: Graph) -> int:
    """Number of distinct subgraphs of host isomorphic to pattern.

    Each copy is counted once, by the one embedding onto it that meets
    the order constraints drawn from the pattern's base orbits (see
    _Plan), so it equals embeddings / |Aut(pattern)|.  Copies are told
    apart by their vertex-and-edge image; for patterns without isolated
    vertices this coincides with counting distinct edge sets.
    """
    return _Host(pattern, host).count(copies=True)

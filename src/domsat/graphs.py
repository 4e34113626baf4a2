"""Small immutable simple graphs stored as bitmask adjacency rows.

Vertices are 0..n-1 with n <= 64, so each adjacency row fits in one
machine word and neighborhood algebra is plain integer bit twiddling.
Every other module builds on the Graph type defined here: a plain
slotted class that refuses attribute writes, compares and hashes by
(n, rows), and copies and pickles through its validating constructor
(it is not a dataclass, so importing it does not import dataclasses,
inspect and ast on every command-line start).

Vertex and edge connectivity are decided by trying every small cut, and
bridges by removing each edge in turn, which suits the desk-scale hosts
the verify suites check and the patterns the bounds and bridge builders
ask about.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

MAX_VERTICES = 64

def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _twin_classes(rows: Sequence[int], vertices: Iterable[int]) -> list[int]:
    """The classes of two or more twins among vertices, given in ascending
    order, as bitmasks ordered by least member.  Twins have the same
    neighbours apart from each other: false twins have equal rows, true
    twins equal rows once each one's own bit is set.  No vertex v lies in
    two classes: were a a false and b a true twin of v, b would be a
    neighbour of v, hence of a, so a would lie in b's closed
    neighbourhood, which is v's, and be v's neighbour.  So a vertex with
    a false twin needs no true-twin test."""
    # open rows key false twins; complemented closed rows, being negative,
    # key true twins apart from them
    least: dict[int, int] = {}
    classes: dict[int, int] = {}
    for v in vertices:
        row = rows[v]
        w = least.setdefault(row, v)
        if w == v:
            w = least.setdefault(~(row | 1 << v), v)
        if w != v:
            classes[w] = classes.get(w, 1 << w) | 1 << v
    return [classes[w] for w in sorted(classes)]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    rows[v] is the neighbor bitmask of v.  The relation is symmetric with
    an empty diagonal.  The public constructors (Graph(...), from_edges,
    graph6_decode) validate their input; graphs derived from a valid graph
    (add_edge, remove_edge, relabel, subgraph, complement, canonical forms)
    are valid by construction and skip the check.
    """

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, rows: Sequence[int]) -> None:
        if type(n) is not int or not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n!r} outside 1..{MAX_VERTICES}")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if type(row) is not int:
                raise ValueError(f"row {v} is not an int: {row!r}")
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(n):
            for v in _bits(rows[u]):
                if not rows[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency at ({u}, {v})")
        _set_n(self, n)
        _set_rows(self, rows)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the validating constructor
        return Graph, (self.n, self.rows)

    # -- basic queries ---------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def min_degree(self) -> int:
        return min(self.degrees())

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) outside 0..{self.n - 1}")
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.rows[u] >> (u + 1) << (u + 1)
            for v in _bits(row):
                out.append((u, v))
        return out

    def non_edges(self) -> list[tuple[int, int]]:
        """All non-adjacent pairs (u, v), u < v, lexicographic order."""
        out = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self.rows[u] >> v & 1:
                    out.append((u, v))
        return out

    # -- derived graphs --------------------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("cannot add a self-loop")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return _trusted_graph(self.n, tuple(rows))

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return _trusted_graph(self.n, tuple(rows))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply the vertex relabeling v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("relabeling is not a permutation of 0..n-1")
        return _trusted_graph(self.n, _relabelled(self.rows, perm))

    def subgraph(self, mask: int) -> "Graph":
        """Induced subgraph on the vertices of mask, compactly relabeled.

        Kept vertices keep their relative order.
        """
        verts = list(_bits(mask & self.vertex_mask))
        if not verts:
            raise ValueError("subgraph on an empty vertex set")
        index = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            acc = 0
            for w in _bits(self.rows[v] & mask):
                acc |= 1 << index[w]
            rows.append(acc)
        return _trusted_graph(len(verts), tuple(rows))

    def complement(self) -> "Graph":
        full = self.vertex_mask
        rows = tuple((full & ~self.rows[v]) & ~(1 << v) for v in range(self.n))
        return _trusted_graph(self.n, rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


# slot setters; they bypass Graph.__setattr__, which refuses every write
_set_n = Graph.n.__set__
_set_rows = Graph.rows.__set__


def _relabelled(rows: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows after moving each vertex v to perm[v]; perm is
    trusted to be a permutation of the row indices."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        acc = 0
        while row:
            low = row & -row
            row ^= low
            acc |= 1 << perm[low.bit_length() - 1]
        out[perm[v]] = acc
    return tuple(out)


def _trusted_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """Graph(n, rows) without validation, for rows derived from a valid graph."""
    g = object.__new__(Graph)
    _set_n(g, n)
    _set_rows(g, rows)
    return g


# -- constructors ---------------------------------------------------------


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError("self-loop in edge list")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 is the center."""
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with the a-side labeled 0..a-1."""
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Parts of the given sizes on consecutive labels, every cross pair joined."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    if sum(sizes) > MAX_VERTICES:
        # join would name only the first partial sum past the limit
        raise ValueError(f"vertex count {sum(sizes)} outside 1..{MAX_VERTICES}")
    return reduce(join, map(empty_graph, sizes))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every cross edge.

    g keeps labels 0..g.n-1, h is shifted to g.n..g.n+h.n-1.
    """
    n = g.n + h.n
    hmask = ((1 << h.n) - 1) << g.n
    gmask = (1 << g.n) - 1
    rows = [g.rows[v] | hmask for v in range(g.n)]
    rows += [(h.rows[v] << g.n) | gmask for v in range(h.n)]
    return Graph(n, tuple(rows))


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    if not parts:
        raise ValueError("disjoint union of nothing")
    n = sum(p.n for p in parts)
    rows: list[int] = []
    shift = 0
    for p in parts:
        rows.extend(r << shift for r in p.rows)
        shift += p.n
    return Graph(n, tuple(rows))


# -- connectivity ----------------------------------------------------------


def components(g: Graph, alive: int | None = None) -> list[int]:
    """Connected components as vertex bitmasks, ordered by lowest vertex.

    With alive given, the components of the subgraph induced on alive.
    """
    if alive is None:
        alive = g.vertex_mask
    remaining = alive
    out = []
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            nbrs = 0
            for v in _bits(frontier):
                nbrs |= g.rows[v]
            frontier = nbrs & alive & ~comp
            comp |= frontier
        out.append(comp)
        remaining &= ~comp
    return out


def component_graphs(g: Graph) -> list[Graph]:
    return [g.subgraph(mask) for mask in components(g)]


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def is_acyclic(g: Graph) -> bool:
    return g.edge_count == g.n - len(components(g))


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.edge_count == g.n - 1


def is_star(g: Graph) -> bool:
    """True iff g is K_{1,n-1} with n >= 3: n - 1 edges, all at one vertex."""
    return g.n >= 3 and g.edge_count == g.n - 1 and g.n - 1 in g.degrees()


def bridges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose removal increases the component count, in edges() order."""
    count = len(components(g))
    return [e for e in g.edges() if len(components(g.remove_edge(*e))) > count]


def _no_cut_below(k: int, items: Sequence, separates: Callable[[tuple], bool]) -> bool:
    """True iff no set of fewer than k items separates.  Every such set is
    tried, C(len(items), <k) of them, so the cost is exponential in k."""
    if k < 0:
        raise ValueError("connectivity order must be non-negative")
    for size in range(k):
        for cut in combinations(items, size):
            if separates(cut):
                return False
    return True


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff g has more than k vertices and no vertex cut of size < k.

    K_n has no vertex cut, so it is (n-1)-connected and not n-connected;
    every graph is 0-connected.
    """
    if g.n <= k:
        return False
    full = g.vertex_mask

    def separates(cut: tuple[int, ...]) -> bool:
        mask = sum(1 << v for v in cut)
        return len(components(g, full & ~mask)) >= 2

    return _no_cut_below(k, range(g.n), separates)


def is_k_edge_connected(g: Graph, k: int) -> bool:
    """True iff no edge cut of size < k disconnects g.

    A single vertex cannot be disconnected by edge removal, so K_1 passes
    for every k; a disconnected graph fails for every k >= 1.
    """

    def separates(cut: tuple[tuple[int, int], ...]) -> bool:
        h = g
        for e in cut:
            h = h.remove_edge(*e)
        return not is_connected(h)

    return _no_cut_below(k, g.edges(), separates)

"""Canonical labeling and automorphism counting.

canonical_form uses individualization-refinement: refine an ordered
partition to equitability, branch on the first non-singleton cell, and
keep the lexicographically least adjacency encoding over all leaves.
Automorphisms discovered when two leaves collide prune sibling branches
(orbit pruning restricted to generators fixing the individualized
prefix), which keeps highly symmetric graphs from exploding.  Siblings
are tried in ascending order and an automorphism fixing the prefix maps
the target cell onto itself, so a sibling shares an orbit with one
already tried exactly when it is not its orbit's least member: the test
reads one orbit root.  A child
is refined only by the two cells its individualization made, {v} and
the rest of the target cell, since its parent's partition is already
equitable with respect to every other cell.

Swapping twins, two vertices with the same neighbours apart from each
other, is an automorphism known before any branching.  So the search
starts with the swaps of consecutive twins and splits a cell of mutual
twins into singletons at once: every other branch through that cell is
an image of this leftmost path under twin swaps, and no other cell
splits, since a vertex outside a twin class sees all of it or none.  A
path takes each class's members least first, so the swaps among the
rest fix its prefix, and the orbit test prunes every sibling that is a
twin of one already tried.

One search yields the canonical form, generators of Aut and |Aut|
(McKay and Piperno, "Practical graph isomorphism, II", J. Symbolic
Comput. 60, 2014).  Take the path v_1..v_d to the first leaf with the
least encoding.  At each node on it, a sibling in the same Aut-orbit as
the path child is either explored or pruned.  An explored sibling's
subtree keeps a least leaf, and the search then records an automorphism
that fixes the prefix and maps the path child to the sibling; a pruned
sibling already lies in that orbit under the automorphisms found.  So
the found automorphisms fixing v_1..v_{k-1} move v_k over its whole
orbit under that prefix's stabilizer, they generate Aut, and |Aut| is
the product of those orbit sizes (only the identity fixes the path,
since its leaf is discrete).  An explored sibling stops at its first leaf
equal to the best leaf, records the automorphism there and jumps back to
the common ancestor: the rest of its subtree is the image of one already
searched, so the least leaf and the orbit argument are unchanged.
Enumeration reads the positions, the form and the generators from one
search and relabels the generators onto the form itself.  It tests a
child's root partition (_root_cells, whose order every leaf keeps)
before searching it, and the search takes its root from the same cache,
so a child it keeps is refined once.  _pair_orbit_roots applies the
generators to vertex pairs: enumeration's non-edge orbits and
canonical-edge test and embed's one anchor arc per orbit all call it.  _base_orbits gives the path with each v_k's orbit under its
prefix's stabilizer: automorphism_order multiplies their sizes, and
embed turns them into the order constraints that count each copy of a
pattern once (Grochow and Kellis, "Network motif discovery using
subgraph enumeration and symmetry-breaking", RECOMB 2007).
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Sequence

from .graph6 import graph6_encode
from .graphs import Graph, _bits, _relabelled, _trusted_graph, _twin_classes


def _refine(rows: tuple[int, ...], cells: list[int], queue: list[int]) -> list[int]:
    """Coarsest equitable ordered partition refining cells.

    Only the masks in queue, and the parts each split makes, are used as
    splitters, last first.  So cells must already be equitable with
    respect to every cell left out of queue: each vertex of a cell has
    the same number of neighbours in it.  A cell that meets no neighbour
    of the splitter would key every member 0, so it is kept whole."""
    n = len(rows)
    cells = list(cells)
    queue = list(queue)
    # a discrete partition splits no further, so the rest of the queue is moot
    while queue and len(cells) < n:
        splitter = queue.pop()
        new_cells: list[int] = []
        if splitter & (splitter - 1) == 0:
            # one vertex w: each cell splits into non-neighbours (key 0)
            # then neighbours (key 1) of w, as the general case below would
            adj = rows[splitter.bit_length() - 1]
            for cell in cells:
                inside = cell & adj
                if inside and inside != cell:
                    outside = cell ^ inside
                    new_cells += (outside, inside)
                    queue += (outside, inside)
                else:
                    new_cells.append(cell)
            cells = new_cells
            continue
        near = 0
        for w in _bits(splitter):
            near |= rows[w]
        for cell in cells:
            if cell & (cell - 1) == 0 or not cell & near:  # cannot split
                new_cells.append(cell)
                continue
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                key = (rows[low.bit_length() - 1] & splitter).bit_count()
                groups[key] = groups.get(key, 0) | low
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                for key in sorted(groups):
                    part = groups[key]
                    new_cells.append(part)
                    queue.append(part)
        cells = new_cells
    return cells


def _orbit_roots(n: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """The least point of each point's orbit under the group gens generate."""
    roots = [-1] * n
    for v in range(n):
        if roots[v] < 0:
            roots[v] = v
            stack = [v]
            while stack:
                x = stack.pop()
                for p in gens:
                    y = p[x]
                    if roots[y] < 0:
                        roots[y] = v
                        stack.append(y)
    return roots


def _pair_orbit_roots(pairs: Sequence[tuple[int, int]], gens: Sequence[Sequence[int]]) -> list[int]:
    """Orbit roots, as indices into pairs, of vertex pairs under <gens>.
    p sends (u, v) to (p[u], p[v]) if pairs lists it, else to (p[v], p[u]),
    so pairs may be unordered pairs listed once or arcs listed with their
    reverses; pairs must be closed under the generators."""
    index: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(pairs):
        index[u, v] = i
        index.setdefault((v, u), i)  # a listed pair keeps its own index
    return _orbit_roots(len(pairs), [[index[p[u], p[v]] for u, v in pairs] for p in gens])


def _pair_orbit_firsts(
    pairs: Sequence[tuple[int, int]], gens: Sequence[Sequence[int]]
) -> list[tuple[int, int]]:
    """The first pair, in the order given, of each orbit of <gens> on pairs."""
    roots = _pair_orbit_roots(pairs, gens)
    return [e for i, e in enumerate(pairs) if roots[i] == i]


@lru_cache(maxsize=1)
def _root_cells(g: Graph) -> tuple[int, ...]:
    """The coarsest equitable ordered partition of g's vertices, the root
    of its canonical search.  Its cells are ordered by isomorphism
    invariants, and every leaf keeps them in order: a vertex's canonical
    label lies in its root cell's range.  The last result is cached, so
    a caller that tests a graph's root before searching it refines once."""
    return tuple(_refine(g.rows, [g.vertex_mask], [g.vertex_mask]))


@lru_cache(maxsize=1)
def _canonical_search(
    g: Graph,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each vertex's position (old -> new) at the first least leaf, that
    leaf's encoding (the canonical form's rows), automorphisms of g that
    generate Aut(g), and the vertices individualized on the way to that
    leaf.  The automorphisms are the transpositions of consecutive twins
    and those found when leaves collided.  Only the encoding, and |Aut|
    read off the path, are isomorphism invariants: the positions are one
    of |Aut(g)| equally good choices.

    The last result is cached, so the readers below share one search
    when they ask about the same graph in a row."""
    rows = g.rows
    n = g.n
    best_enc: tuple[int, ...] | None = None
    best_pos: list[int] | None = None
    best_fixed: tuple[int, ...] = ()
    autos: list[tuple[int, ...]] = []
    root = _root_cells(g)
    # twins[v]: the class of v's twins, v included, or 0 if it has none;
    # an automorphism maps a root cell onto itself, so twins share one
    twins = [0] * n
    for cell in root:
        if cell & (cell - 1):
            for members in _twin_classes(rows, _bits(cell)):
                ones = list(_bits(members))
                for a, b in zip(ones, ones[1:]):
                    p = list(range(n))
                    p[a], p[b] = b, a
                    autos.append(tuple(p))
                    twins[a] = twins[b] = members

    def descend(cells: list[int], queue: list[int], fixed: tuple[int, ...]) -> int:
        """Search below fixed, refining cells by queue; return the depth to
        resume at (n: no jump)."""
        nonlocal best_enc, best_pos, best_fixed
        cells = _refine(rows, cells, queue)
        while True:
            target = next((c for c in cells if c & (c - 1)), 0)
            low = target & -target
            if not target or target & ~twins[low.bit_length() - 1]:
                break
            # mutual twins: below here every branch is the image of the
            # leftmost one under twin swaps, and individualizing a twin
            # splits no other cell, so take that path at once
            idx = cells.index(target)
            ones = list(_bits(target))
            cells[idx:idx + 1] = [1 << v for v in ones]
            fixed += tuple(ones[:-1])
        if not target:
            pos = [0] * n
            for i, c in enumerate(cells):
                pos[c.bit_length() - 1] = i
            enc = _relabelled(rows, pos)
            if best_enc is None or enc < best_enc:
                best_enc, best_pos, best_fixed = enc, pos, fixed
            elif enc == best_enc:
                # x goes to the vertex this leaf puts where the best leaf put x
                autos.append(tuple(cells[i].bit_length() - 1 for i in best_pos))
                # jump back to the deepest common ancestor with the best leaf
                c = 0
                while fixed[c] == best_fixed[c]:
                    c += 1
                return c
            return n
        idx = cells.index(target)
        rest = cells[idx + 1:]
        head = cells[:idx]
        # orbit roots under the automorphisms fixing the prefix; autos only
        # grows, so they change only when it has grown since the last sibling,
        # and the first sibling, target's least vertex, is its orbit's root
        roots: Sequence[int] = range(n)
        known = 0
        for i, v in enumerate(_bits(target)):
            if i and len(autos) != known:
                known = len(autos)
                roots = _orbit_roots(n, [p for p in autos if all(p[x] == x for x in fixed)])
            if roots[v] != v:
                continue
            # cells is equitable, so in the child only these two can split
            split = [1 << v, target & ~(1 << v)]
            depth = descend(head + split + rest, split, fixed + (v,))
            if depth < len(fixed):
                return depth
        return n

    descend(list(root), [], ())
    # descend holds itself through its closure; breaking that cycle frees
    # the search's lists now instead of at the next cycle collection
    del descend
    assert best_pos is not None and best_enc is not None
    return tuple(best_pos), best_enc, tuple(autos), best_fixed


def canonical_relabeling(g: Graph) -> tuple[int, ...]:
    """Permutation old -> new realizing the canonical form: one of the
    |Aut(g)| that do, chosen by the search, so only the form it yields
    is stable; a change to the search may return another."""
    return _canonical_search(g)[0]


def canonical_form(g: Graph) -> Graph:
    """Canonical representative of g's isomorphism class.

    Isomorphic inputs map to identical outputs, the output is a
    relabeling of the input, and the map is idempotent.
    """
    return _trusted_graph(g.n, _canonical_search(g)[1])


def canonical_graph6(g: Graph) -> str:
    return graph6_encode(canonical_form(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def _base_orbits(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The search's path v_1..v_d, each v_k with its orbit under the found
    automorphisms fixing v_1..v_{k-1}, which is its orbit under the
    stabilizer of v_1..v_{k-1} in Aut(g)."""
    _, _, gens, path = _canonical_search(g)
    out = []
    for v in path:
        roots = _orbit_roots(g.n, gens)
        out.append((v, tuple(w for w in range(g.n) if roots[w] == roots[v])))
        gens = tuple(p for p in gens if p[v] == v)
    return tuple(out)


def automorphism_order(g: Graph) -> int:
    """|Aut(g)|: the product of the base orbits' sizes."""
    return prod(len(orbit) for _, orbit in _base_orbits(g))

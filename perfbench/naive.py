"""Reference answers computed apart from domsat.

Nothing here imports domsat.  Graphs are (n, edge mask) pairs, where bit
pair_bit(u, v) of the mask stands for the pair {u, v}; graph6 text is
read and written by the small codec below.  Predicates are decided by
applying each definition literally to the set of all copies of the
pattern in the complete graph K_n, found by trying every injective
vertex map of the pattern, so they share no search code with the
program.  The closed forms for the certified families are listed in
README.md.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, perm


def pair_bit(u: int, v: int) -> int:
    """Bit index of the pair {u, v} in graph6 column order."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def g6_decode(text: str) -> tuple[int, int]:
    """(n, edge mask) of a graph6 string on at most 62 vertices."""
    data = [ord(c) - 63 for c in text.strip()]
    n = data[0]
    if not 1 <= n <= 62 or any(not 0 <= x <= 63 for x in data):
        raise ValueError(f"not a short-form graph6 string: {text!r}")
    total = n * (n - 1) // 2
    if len(data) - 1 != (total + 5) // 6:
        raise ValueError(f"graph6 body has the wrong length: {text!r}")
    mask = 0
    for i in range(total):
        if data[1 + i // 6] >> (5 - i % 6) & 1:
            mask |= 1 << i
    return n, mask


def g6_encode(n: int, mask: int) -> str:
    total = n * (n - 1) // 2
    body = []
    for start in range(0, total, 6):
        group = 0
        for i in range(start, start + 6):
            group = group << 1 | (mask >> i & 1 if i < total else 0)
        body.append(group)
    return "".join(chr(x + 63) for x in [n] + body)


def edge_mask(edges) -> int:
    mask = 0
    for u, v in edges:
        mask |= 1 << pair_bit(u, v)
    return mask


def edge_list(n: int, mask: int) -> list[tuple[int, int]]:
    return [(u, v) for v in range(n) for u in range(v) if mask >> pair_bit(u, v) & 1]


def relabel(n: int, mask: int, new_label: list[int]) -> int:
    return edge_mask((new_label[u], new_label[v]) for u, v in edge_list(n, mask))


@lru_cache(maxsize=None)
def copies_in_complete(pattern_g6: str, n: int) -> frozenset[int]:
    """Edge masks of every copy of the pattern in K_n, by trying every
    injective map of the pattern's vertices into 0..n-1."""
    k, pmask = g6_decode(pattern_g6)
    pedges = edge_list(k, pmask)
    return frozenset(
        edge_mask((img[a], img[b]) for a, b in pedges)
        for img in permutations(range(n), k)
    )


@lru_cache(maxsize=None)
def verdicts(pattern_g6: str, host_g6: str) -> dict[str, bool]:
    """Every predicate's verdict for the host, straight from its definition."""
    n, host = g6_decode(host_g6)
    return _verdicts(n, host, copies_in_complete(pattern_g6, n))


def _verdicts(n: int, host: int, copies: frozenset[int]) -> dict[str, bool]:
    """A copy S of the pattern lies in G + e through e exactly when the
    edges of S missing from G are {e}."""
    full = (1 << n * (n - 1) // 2) - 1
    covered = 0      # host edges that lie in a copy inside the host
    creatable = 0    # non-edges e with a copy inside G + e through e
    free = True
    for s in copies:
        missing = s & ~host
        if not missing:
            free = False
            covered |= s
        elif missing & (missing - 1) == 0:
            creatable |= missing
    semi = creatable == full & ~host
    closure = host | creatable
    while True:
        grown = closure
        for s in copies:
            missing = s & ~grown
            if missing and missing & (missing - 1) == 0:
                grown |= missing
        if grown == closure:
            break
        closure = grown
    return {
        "free": free,
        "semi-saturated": semi,
        "saturated": free and semi,
        "dominated": covered == host,
        "dom-sat": covered == host and semi,
        "weakly-saturated": closure == full,
    }


def brute_min_edges(pattern_g6: str, n: int, predicate: str) -> int:
    """Least edge count over every labelled graph on n vertices that
    satisfies the predicate; dom-sat hosts need at least one edge."""
    total = n * (n - 1) // 2
    copies = copies_in_complete(pattern_g6, n)
    for m in range(1 if predicate == "dom-sat" else 0, total + 1):
        for chosen in combinations(range(total), m):
            mask = 0
            for i in chosen:
                mask |= 1 << i
            if _verdicts(n, mask, copies)[predicate]:
                return m
    raise AssertionError("the complete graph satisfies every search predicate")


def sat_clique(n: int, r: int) -> int:
    """sat(n, K_r) = (r-2)(n-r+2) + C(r-2, 2), the classical clique formula."""
    return (r - 2) * (n - r + 2) + comb(r - 2, 2)


# -- closed forms for the certified families ----------------------------------
# Each returns (edges, copies of the claim pattern, |Aut(host)|).


def dom_turan_forms(n: int, r: int) -> tuple[int, int, int]:
    """K_{r-2} joined to a near-matching on q = n-r+2 >= 4 vertices."""
    q = n - r + 2
    if q < 4:
        raise ValueError("with q < 4 a matching vertex is adjacent to everything")
    if q % 2 == 0:
        m_edges, triangles, m_aut = q // 2, 0, 2 ** (q // 2) * factorial(q // 2)
    else:
        k = (q - 3) // 2
        m_edges, triangles, m_aut = k + 3, 1, 6 * 2 ** k * factorial(k)
    edges = comb(r - 2, 2) + (r - 2) * q + m_edges
    copies = m_edges + (r - 2) * triangles
    return edges, copies, factorial(r - 2) * m_aut


def path_component(r: int) -> int:
    return 3 * (r - 1) // 2 if r % 2 else 3 * (r - 2) // 2 + 1


def path_forms(n: int, r: int) -> tuple[int, int, int]:
    """n / c disjoint paths on c = path_component(r) vertices; pattern P_r."""
    c = path_component(r)
    k = n // c
    return n - k, k * (c - r + 1), factorial(k) * 2 ** k


def star_forms(n: int, r: int) -> tuple[int, int, int]:
    """n / (2r-1) disjoint K_{r-1,r}; pattern K_{1,r}."""
    k = n // (2 * r - 1)
    return k * r * (r - 1), k * (r - 1), factorial(k) * (factorial(r - 1) * factorial(r)) ** k


def cycle_gadget_forms(n: int, r: int, p: int) -> tuple[int, int, int]:
    """Clique K_ell with loops of p path vertices from anchor 0 to anchor 1."""
    ell = r + (n - r) % p
    loops = (n - ell) // p
    edges = comb(ell, 2) + loops * (p + 1)
    inner = r - p - 2  # clique vertices on the way back from anchor 1 to 0
    copies = comb(ell, r) * factorial(r - 1) // 2
    if 0 <= inner <= ell - 2:
        copies += loops * perm(ell - 2, inner)
    if 2 * p + 2 == r:
        copies += comb(loops, 2)
    return edges, copies, factorial(ell - 2) * factorial(loops) * 2


def star_plus_forms(s: int) -> tuple[int, int, int]:
    """H_s, a double star with s-2 leaves per centre; pattern G_s (s >= 5)."""
    return 2 * s - 3, 2 * (s - 2) ** 2, 2 * factorial(s - 2) ** 2


def dumbbell_forms(n: int, r: int) -> tuple[int, int, int]:
    """n / 2r disjoint copies of two K_r joined by one edge; the pattern is
    one such block."""
    k = n // (2 * r)
    return k * (2 * comb(r, 2) + 1), k, factorial(k) * (2 * factorial(r - 1) ** 2) ** k

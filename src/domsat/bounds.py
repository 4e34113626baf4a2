"""Closed-form values and structural density bounds.

All densities are exact rationals; nothing here touches floating point,
so equality checks in tests are exact.  Asymptotic lower bounds are
never asserted at a fixed order - they are reported as densities the
finite search profiles can be compared against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from ._json import plain, record
from .constructions import _clique_pair, _neighborhood_matched, bridge_pair_order, neighborhood_scan
from .graphs import MAX_VERTICES, Graph, bridges, component_graphs, disjoint_union, is_star
from .predicates import _require_pattern, is_dom_sat


class Bound(NamedTuple):
    value: Fraction
    source: str


class BoundSet(NamedTuple):
    """Density bounds for a pattern, each tagged with its source theorem."""

    lower: tuple[Bound, ...]
    upper: tuple[Bound, ...]
    notes: tuple[str, ...] = ()

    @property
    def best_lower(self) -> Fraction | None:
        return max((b.value for b in self.lower), default=None)

    @property
    def best_upper(self) -> Fraction | None:
        return min((b.value for b in self.upper), default=None)

    @property
    def consistent(self) -> bool:
        lo, hi = self.best_lower, self.best_upper
        return lo is None or hi is None or lo <= hi

    def to_json_dict(self) -> dict:
        def enc(bs):
            return [{**plain(b.value), "source": b.source} for b in bs]

        return record(
            {
                "lower": enc(self.lower),
                "upper": enc(self.upper),
                "best_lower": self.best_lower,
                "best_upper": self.best_upper,
                "consistent": self.consistent,
                "notes": self.notes,
            }
        )


def sat_clique(n: int, r: int) -> int:
    """Minimum edges of a clique-saturated graph: (r-2)n - C(r-1,2)."""
    if not n >= r >= 3:
        raise ValueError("need n >= r >= 3")
    return (r - 2) * n - comb(r - 1, 2)


def dsat_clique_density(r: int) -> Fraction:
    """Asymptotic clique dom-sat density r - 3/2."""
    if r < 3:
        raise ValueError("need r >= 3")
    return Fraction(2 * r - 3, 2)


def dsat_clique_upper_edges(n: int, r: int) -> int:
    """Edge count of the clique-plus-near-matching witness on n vertices.

    An upper bound on the clique dom-sat number; the witness family is
    asymptotically extremal, not exactly extremal at every n.
    """
    if not n >= r >= 3:
        raise ValueError("need n >= r >= 3")
    q = n - r + 2
    return comb(r - 2, 2) + (r - 2) * q + (q + 1) // 2 + (n - r) % 2


def star_density_candidates(r: int) -> dict[str, Fraction]:
    """Both recorded upper-density candidates for the star K_{1,r}.

    The stated constant (r-1)/2 + (4r-3)/(8r-4) does not match the
    density r(r-1)/(2r-1) of the disjoint-K_{r-1,r} witness behind it;
    both are kept and neither is guessed away.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    return {
        "construction-derived": Fraction(r * (r - 1), 2 * r - 1),
        "stated": Fraction(r - 1, 2) + Fraction(4 * r - 3, 8 * r - 4),
    }


def _path_density(r: int) -> Fraction:
    if r % 2:
        j = (r - 1) // 2
        return 1 - Fraction(1, 3 * j)
    j = (r - 2) // 2
    return 1 - Fraction(1, 3 * j + 1)


def _kt_path_sat_density(r: int) -> Fraction:
    if r == 4:
        return Fraction(1, 2)
    if r % 2:
        j = (r - 1) // 2
        return 1 - Fraction(1, 2 * 2**j - 2)
    j = (r - 2) // 2
    return 1 - Fraction(1, 3 * 2**j - 2)


# family: (its parameter, the parameter's least value, the density it gives)
_DENSITIES = {
    "path": ("r", 3, _path_density),
    "cycle": ("r", 4, lambda r: (Fraction(1), 1 + Fraction(1, r - 3))),
    "star": ("r", 2, lambda r: (Fraction(r - 1, 2), star_density_candidates(r)["construction-derived"])),
    "star_plus": ("s", 4, lambda s: (1 - Fraction(1, s), 1 - Fraction(1, 2 * s - 2))),
    "kt_path_sat": ("r", 3, _kt_path_sat_density),
}


def known_density(family: str, **params):
    """Exact density (paths) or [lower, upper] interval for a family.

    Families: path(r), cycle(r), star(r), star_plus(s), kt_path_sat(r);
    the last is the classical path saturation density kept as an oracle,
    1 - 1/a_r for r = 3 and r >= 5; sat(n, P_4) is n/2 or (n+3)/2 by the
    parity of n (Kaszonyi and Tuza, J. Graph Theory 10, 1986), so 1/2.
    """
    row = _DENSITIES.get(family.replace("-", "_"))
    if row is None:
        raise ValueError(f"unknown family {family!r}")
    name, least, density = row
    if name not in params:
        raise ValueError(f"family {family!r} needs parameter {name!r}")
    value = params[name]
    if value < least:
        raise ValueError(f"need {name} >= {least}")
    return density(value)


def _certified_pair_order(f: Graph) -> tuple[int | None, int]:
    """Smallest clique order whose joined-pair blocks certify as f-dom-sat.

    The stated refined bridge bound is demonstrated by pairs of r-cliques
    joined by an edge, but that witness is not f-dominated for every
    bridged f (stars already break it), so the bound is only recorded for
    the smallest r >= the best bridge split whose two-block instance
    passes the predicate.  f must have a bridge.  Returns (certified r,
    or None when no order up to f.n certifies, and stated minimal r).
    """
    stated = bridge_pair_order(f)
    for r in range(stated, f.n + 1):
        if 4 * r > MAX_VERTICES:
            break
        pair = _clique_pair(r)
        if is_dom_sat(disjoint_union([pair, pair]), f).verdict:
            return r, stated
    return None, stated


def _cut_pair_bound(f: Graph) -> Fraction | None:
    """Min of k + (r-1)/2 over disjoint U, W with exactly one U-W edge,
    |U | W| = r <= 6 and k = |N(U | W) - (U | W)|.  The value depends on
    S = U | W alone, and S splits so exactly when f[S] has a bridge (U is
    one end's side once the bridge is removed)."""
    best = None
    for r in range(2, min(6, f.n) + 1):
        for subset in combinations(range(f.n), r):
            sub_mask = nbrs = 0
            for v in subset:
                sub_mask |= 1 << v
                nbrs |= f.rows[v]
            if not bridges(f.subgraph(sub_mask)):
                continue
            value = Fraction((nbrs & ~sub_mask).bit_count()) + Fraction(r - 1, 2)
            if best is None or value < best:
                best = value
    return best


def structural_bounds(f: Graph) -> BoundSet:
    """Every applicable structural density bound for the pattern f.

    Inapplicable bounds are simply absent.  Lower bounds are asymptotic
    statements about the dom-sat density, never claims at a fixed order.
    """
    _require_pattern(f)
    lower: list[Bound] = []
    upper: list[Bound] = []
    notes: list[str] = []

    if all(c.edge_count >= 2 for c in component_graphs(f)):
        lower.append(Bound(Fraction(f.min_degree(), 2), "min-degree-half"))

    upper.append(Bound(Fraction(2 * f.n - 3, 2), "clique-upper"))

    if bridges(f):
        upper.append(Bound(Fraction(f.n - 1, 2), "bridge-blocks"))
        certified_r, stated_r = _certified_pair_order(f)
        if certified_r is not None:
            upper.append(
                Bound(Fraction(certified_r * (certified_r - 1) + 1, 2 * certified_r), "bridge-pairs")
            )
        if certified_r != stated_r:
            notes.append(
                f"bridge-pairs witness with clique order {stated_r} fails its "
                f"predicate for this pattern; smallest certifying order is "
                f"{certified_r}"
            )

    # k + 1 >= the least positive degree on every edge, and a half is added
    # only when they are equal, so k + 1/2 [matched] is least at the least k
    k, _ = neighborhood_scan(f)
    half = Fraction(1, 2) if _neighborhood_matched(f, k) else 0
    upper.append(Bound(Fraction(k) + half, "neighborhood"))

    cp = _cut_pair_bound(f)
    if cp is not None:
        upper.append(Bound(cp, "cut-pair"))

    if is_star(f):
        cands = star_density_candidates(f.n - 1)
        upper.append(Bound(cands["construction-derived"], "star-family-construction"))
        upper.append(Bound(cands["stated"], "star-family-stated"))
        notes.append(
            "star-family upper candidates disagree: the stated constant exceeds "
            "the witness density; both are recorded"
        )

    bs = BoundSet(tuple(lower), tuple(upper), tuple(notes))
    if not bs.consistent:
        notes.append("inconsistent: best lower exceeds best upper")
        bs = BoundSet(tuple(lower), tuple(upper), tuple(notes))
    return bs

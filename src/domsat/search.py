"""Exact minimum-edge search over isomorphism classes.

min_edges sweeps edge counts upward from a sound degree floor and tests
every class at each level, so the returned value is certified by
exhaustion below it.  dom-sat hosts are required to have at least one
edge (the domination theory's blanket assumption, without which the
empty graph passes vacuously); the classical saturation variants admit
the empty graph, e.g. every graph is weakly K_2-saturated.

The degree floor only ever applies necessary degree conditions and the
level sweep itself is never truncated; tests/test_search.py checks the
floor against an unpruned sweep.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

from ._json import record
from .canon import canonical_graph6
from .enumeration import MAX_ENUM_VERTICES, levels
from .graph6 import graph6_encode
from .graphs import Graph, component_graphs
from .predicates import PREDICATES, _require_pattern

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_MAX_N = 9

SEARCH_PREDICATES = ("saturated", "semi-saturated", "dom-sat", "weakly-saturated")


class SearchCapError(ValueError):
    """Requested order above the configured search cap."""


class SearchResult(NamedTuple):
    pattern: str
    n: int
    predicate: str
    min_edges: int
    witnesses: tuple[str, ...]
    graphs_examined: int

    def to_json_dict(self) -> dict:
        return record(self._asdict())


class DensityProfile(NamedTuple):
    pattern: str
    predicate: str
    rows: tuple[tuple[int, int, Fraction], ...]

    def densities(self) -> list[Fraction]:
        return [row[2] for row in self.rows]

    def gap_to(self, target: Fraction) -> Fraction:
        return target - self.rows[-1][2]

    def trend(self) -> dict:
        ms = [row[1] for row in self.rows]
        ds = self.densities()
        return {
            "min_edges_non_decreasing": all(a <= b for a, b in zip(ms, ms[1:])),
            "density_non_decreasing": all(a <= b for a, b in zip(ds, ds[1:])),
            "first_density": ds[0],
            "last_density": ds[-1],
        }

    def to_json_dict(self) -> dict:
        return record(
            {
                "pattern": self.pattern,
                "predicate": self.predicate,
                "rows": [{"n": n, "min_edges": m, "density": d} for n, m, d in self.rows],
                "trend": self.trend(),
            }
        )


# -- pattern-derived degree floors ------------------------------------------


class _PatternInfo(NamedTuple):
    delta: int          # min degree over all pattern vertices
    delta_pos: int      # min degree over non-isolated pattern vertices
    has_k2_component: bool


def _pattern_info(pattern: Graph) -> _PatternInfo:
    degs = pattern.degrees()
    pos = [d for d in degs if d > 0]
    has_k2 = any(c.n == 2 and c.edge_count == 1 for c in component_graphs(pattern))
    return _PatternInfo(min(degs), min(pos), has_k2)


def _sweep_start(n: int, info: _PatternInfo, predicate: str) -> int:
    semi_floor = (n * max(info.delta - 1, 0) + 1) // 2
    floors = [0]
    if predicate in ("saturated", "semi-saturated", "dom-sat"):
        floors.append(semi_floor)
    if predicate == "dom-sat":
        floors.append(1)  # the blanket at-least-one-edge assumption
        if not info.has_k2_component:
            # at most one isolated vertex; the rest sit on pattern-edge images
            floors.append(((n - 1) * info.delta_pos + 1) // 2)
    return max(floors)


def _passes_floor(g: Graph, info: _PatternInfo, predicate: str) -> bool:
    if predicate == "weakly-saturated":
        return True
    degs = g.degrees()
    isolated = sum(1 for d in degs if d == 0)
    if not info.has_k2_component and isolated > 1:
        return False
    if min(degs) < info.delta - 1:
        return False
    if predicate == "dom-sat":
        if any(0 < d < info.delta_pos for d in degs):
            return False
    return True


# -- the search itself -------------------------------------------------------


def _normalize_predicate(name: str) -> str:
    key = name.replace("_", "-")
    if key not in SEARCH_PREDICATES:
        raise ValueError(
            f"search predicate must be one of {SEARCH_PREDICATES}, got {name!r}"
        )
    return key


def _check_order(pattern: Graph, n: int, max_n: int) -> None:
    """Reject a host order that cannot be searched, before any level is built."""
    _require_pattern(pattern)
    if n < pattern.n:
        raise ValueError(f"host order {n} below pattern order {pattern.n}")
    if n > max_n:
        raise SearchCapError(f"order {n} above the search cap {max_n}")
    if n > MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration supports 1..{MAX_ENUM_VERTICES} vertices")


def min_edges(
    pattern: Graph,
    n: int,
    predicate: str,
    *,
    max_n: int = DEFAULT_MAX_N,
) -> SearchResult:
    """Least edge count of an n-vertex graph satisfying the predicate.

    Exhaustive over isomorphism classes, level by level upward from the
    degree floor (dom-sat hosts have an edge); witnesses are every passing
    class at the minimum, as sorted canonical graph6 strings.  One walk of
    levels(n), up to the first level with a winner, certifies the minimum.
    """
    predicate = _normalize_predicate(predicate)
    _check_order(pattern, n, max_n)

    info = _pattern_info(pattern)
    pred_fn = PREDICATES[predicate]
    examined = 0

    for m, classes in islice(enumerate(levels(n)), _sweep_start(n, info, predicate), None):
        examined += len(classes)
        winners = [
            g for g in classes if _passes_floor(g, info, predicate) and pred_fn(g, pattern).verdict
        ]
        if winners:
            return SearchResult(
                pattern=canonical_graph6(pattern),
                n=n,
                predicate=predicate,
                min_edges=m,
                witnesses=tuple(sorted(graph6_encode(g) for g in winners)),
                graphs_examined=examined,
            )
    raise RuntimeError(
        "no graph passed at any edge count; this predicate should always "
        "be satisfiable"
    )


def density_profile(
    pattern: Graph,
    n_max: int,
    predicate: str = "dom-sat",
    *,
    max_n: int = DEFAULT_MAX_N,
) -> DensityProfile:
    """min_edges rows for every order from the pattern's up to n_max.

    n_max is checked against the pattern and both caps first, so a
    profile that cannot finish fails before its first sweep."""
    from fractions import Fraction  # here, so that min_edges alone never loads it

    predicate = _normalize_predicate(predicate)
    _check_order(pattern, n_max, max_n)
    rows = []
    for n in range(pattern.n, n_max + 1):
        res = min_edges(pattern, n, predicate, max_n=max_n)
        rows.append((n, res.min_edges, Fraction(res.min_edges, n)))
    return DensityProfile(res.pattern, predicate, tuple(rows))


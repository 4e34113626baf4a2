"""Saturation predicates with re-checkable certificates.

Each predicate answers a yes/no question about a host graph g against a
pattern f and ships a certificate that can be replayed against (g, f) to
reproduce the verdict.  All but weakly-saturated are conjunctions of
tests run in order on one set-up of g (embed._Host); the first test that
finds its witness fails the predicate and reports it as the certificate:

  free            g has no f-subgraph; failure cert: one embedding
  semi-saturated  every added edge creates a new f-copy through itself;
                  failure cert: a violating non-edge
  saturated       free, then semi-saturated
  dominated       every edge of g lies in an f-copy; failure cert: an
                  uncovered edge
  dom-sat         dominated, then semi-saturated
  weakly-saturated  greedily adding any edge that creates a new f-copy
                  through itself reaches the complete graph; success
                  cert: the greedy edge order, failure cert: the stuck
                  graph's non-edge set

Patterns must have at least one edge; edgeless patterns make every
question degenerate and are rejected.
"""

from __future__ import annotations

from typing import NamedTuple

from ._json import record
from .embed import _Host, is_valid_embedding
from .graphs import Graph

CERT_NONE = "none"
CERT_EMBEDDING = "embedding"
CERT_NON_EDGE = "non-edge"
CERT_UNCOVERED_EDGE = "uncovered-edge"
CERT_CLOSURE_GAP = "closure-gap"
CERT_CLOSURE_ORDER = "closure-order"


class PredicateReport(NamedTuple):
    predicate: str
    verdict: bool
    certificate_kind: str = CERT_NONE
    certificate: tuple = ()

    def to_json_dict(self) -> dict:
        return record(self._asdict())


def _require_pattern(f: Graph) -> None:
    if f.edge_count == 0:
        raise ValueError("pattern must have at least one edge")


def _first_without_copy(pairs: list[tuple[int, int]], copy_through) -> tuple[int, int] | None:
    """First pair uv with no copy through it, or None."""
    for e in pairs:
        if copy_through(*e) is None:
            return e
    return None


# certificate kind -> the witness that fails its test, or None
_WITNESS = {
    CERT_EMBEDDING: lambda probe, g: probe.first(),
    CERT_NON_EDGE: lambda probe, g: _first_without_copy(g.non_edges(), probe.through_added),
    CERT_UNCOVERED_EDGE: lambda probe, g: _first_without_copy(g.edges(), probe.through_edge),
}

# each predicate's tests, in the order their failures are reported
_TESTS = {
    "free": (CERT_EMBEDDING,),
    "semi-saturated": (CERT_NON_EDGE,),
    "saturated": (CERT_EMBEDDING, CERT_NON_EDGE),
    "dominated": (CERT_UNCOVERED_EDGE,),
    "dom-sat": (CERT_UNCOVERED_EDGE, CERT_NON_EDGE),
}


def _conjunction(name: str, g: Graph, f: Graph) -> PredicateReport:
    """Run the tests of predicate name on one set-up of g."""
    _require_pattern(f)
    probe = _Host(f, g)
    for kind in _TESTS[name]:
        found = _WITNESS[kind](probe, g)
        if found is not None:
            return PredicateReport(name, False, kind, found)
    return PredicateReport(name, True)


def is_free(g: Graph, f: Graph) -> PredicateReport:
    """No subgraph of g is isomorphic to f."""
    return _conjunction("free", g, f)


def is_semi_saturated(g: Graph, f: Graph) -> PredicateReport:
    """Every non-edge of g, once added, lies in a new copy of f."""
    return _conjunction("semi-saturated", g, f)


def is_saturated(g: Graph, f: Graph) -> PredicateReport:
    """f-free and f-semi-saturated, reporting the first failure."""
    return _conjunction("saturated", g, f)


def is_dominated(g: Graph, f: Graph) -> PredicateReport:
    """Every edge of g lies in a subgraph of g isomorphic to f."""
    return _conjunction("dominated", g, f)


def is_dom_sat(g: Graph, f: Graph) -> PredicateReport:
    """f-dominated and f-semi-saturated."""
    return _conjunction("dom-sat", g, f)


def is_weakly_saturated(g: Graph, f: Graph) -> PredicateReport:
    """The greedy f-copy closure of g reaches the complete graph.

    Adding an edge never destroys a later opportunity (a copy through a
    still-missing edge stays new), so greedy order is equivalent to the
    ordered-completion definition; the order found is the certificate.
    """
    _require_pattern(f)
    probe = _Host(f, g)
    pending = g.non_edges()
    added: list[tuple[int, int]] = []
    i = 0
    while i < len(pending):
        if probe.through_added(*pending[i]) is None:
            i += 1
        else:
            # rescan from the start, as a restart on the grown graph would
            probe.add(*pending[i])
            added.append(pending.pop(i))
            i = 0
    if pending:
        return PredicateReport(
            "weakly-saturated", False, CERT_CLOSURE_GAP, tuple(pending)
        )
    return PredicateReport(
        "weakly-saturated", True, CERT_CLOSURE_ORDER, tuple(added)
    )


PREDICATES = {
    "free": is_free,
    "saturated": is_saturated,
    "semi-saturated": is_semi_saturated,
    "dominated": is_dominated,
    "dom-sat": is_dom_sat,
    "weakly-saturated": is_weakly_saturated,
}


def run_predicate(name: str, g: Graph, f: Graph) -> PredicateReport:
    key = name.replace("_", "-")
    if key not in PREDICATES:
        raise ValueError(f"unknown predicate {name!r}; choose from {sorted(PREDICATES)}")
    return PREDICATES[key](g, f)


# the certificate kinds each predicate can emit
CERT_KINDS = {name: (CERT_NONE, *kinds) for name, kinds in _TESTS.items()}
CERT_KINDS["weakly-saturated"] = (CERT_CLOSURE_GAP, CERT_CLOSURE_ORDER)


def _vertices(g: Graph, t, k: int) -> bool:
    """t is a tuple of k distinct int vertices of g."""
    ints = isinstance(t, tuple) and all(type(v) is int and 0 <= v < g.n for v in t)
    return ints and len(t) == len(set(t)) == k


def recheck_certificate(report: PredicateReport, g: Graph, f: Graph) -> bool:
    """Replay a report's certificate against (g, f).

    Returns True when the replay reproduces the report's verdict.  A
    certificate that is not a tuple or of a kind the predicate never
    emits, a pair or embedding not made of distinct int vertices of g, a
    closure order that adds an edge twice, or an empty gap replays False.
    """
    kind, cert = report.certificate_kind, report.certificate
    if kind not in CERT_KINDS.get(report.predicate, ()) or not isinstance(cert, tuple):
        return False
    if kind == CERT_NONE:
        return run_predicate(report.predicate, g, f).verdict is report.verdict
    if kind == CERT_EMBEDDING:
        return not report.verdict and is_valid_embedding(f, g, cert)
    probe = _Host(f, g)
    if kind in (CERT_NON_EDGE, CERT_UNCOVERED_EDGE):
        # a non-edge is replayed in g + uv, an uncovered edge in g itself
        if not _vertices(g, cert, 2) or probe.has_edge(*cert) is (kind == CERT_NON_EDGE):
            return False
        if kind == CERT_NON_EDGE:
            probe.add(*cert)
        return not report.verdict and probe.through_edge(*cert) is None
    if not all(_vertices(g, e, 2) for e in cert):
        return False
    if kind == CERT_CLOSURE_GAP:
        # the complete graph minus a non-empty gap is a closure fixed
        # point over g; an empty gap leaves K_n, which proves nothing
        gap = set(cert)
        for e in g.non_edges():
            if e not in gap:
                probe.add(*e)
        if not gap or any(probe.has_edge(u, v) for u, v in gap):
            return False
        if any(probe.through_added(*e) is not None for e in gap):
            return False
        return not report.verdict
    # CERT_CLOSURE_ORDER
    for e in cert:
        if probe.has_edge(*e):
            return False
        probe.add(*e)
        if probe.through_edge(*e) is None:
            return False
    complete = all(row | 1 << u == g.vertex_mask for u, row in enumerate(probe.rows))
    return report.verdict and complete


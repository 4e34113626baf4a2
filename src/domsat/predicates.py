"""Saturation predicates with re-checkable certificates.

Each predicate answers a yes/no question about a host graph g against a
pattern f and ships a certificate that can be replayed against (g, f) to
reproduce the verdict:

  free            g has no f-subgraph; failure cert: one embedding
  semi-saturated  every added edge creates a new f-copy through itself;
                  failure cert: a violating non-edge
  saturated       free and semi-saturated
  dominated       every edge of g lies in an f-copy; failure cert: an
                  uncovered edge
  dom-sat         dominated and semi-saturated
  weakly-saturated  greedily adding any edge that creates a new f-copy
                  through itself reaches the complete graph; success
                  cert: the greedy edge order, failure cert: the stuck
                  graph's non-edge set

Patterns must have at least one edge; edgeless patterns make every
question degenerate and are rejected.
"""

from __future__ import annotations

from typing import NamedTuple

from .embed import _EdgeProbe, copy_through_edge, embedding_exists, is_valid_embedding
from .graphs import Graph, _bits, is_star, is_tree

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
        return {
            "schema": "domsat/1",
            "predicate": self.predicate,
            "verdict": self.verdict,
            "certificate_kind": self.certificate_kind,
            "certificate": _cert_to_json(self.certificate),
        }


def _cert_to_json(cert: tuple):
    if cert and isinstance(cert[0], tuple):
        return [list(c) for c in cert]
    return list(cert)


def _require_pattern(f: Graph) -> None:
    if f.edge_count == 0:
        raise ValueError("pattern must have at least one edge")


def is_free(g: Graph, f: Graph) -> PredicateReport:
    """No subgraph of g is isomorphic to f."""
    _require_pattern(f)
    found = embedding_exists(f, g)
    if found is None:
        return PredicateReport("free", True)
    return PredicateReport("free", False, CERT_EMBEDDING, found)


def is_semi_saturated(g: Graph, f: Graph) -> PredicateReport:
    """Every non-edge of g, once added, lies in a new copy of f."""
    _require_pattern(f)
    probe = _EdgeProbe(f, g)
    for e in g.non_edges():
        if probe.through_added(*e) is None:
            return PredicateReport("semi-saturated", False, CERT_NON_EDGE, e)
    return PredicateReport("semi-saturated", True)


def is_saturated(g: Graph, f: Graph) -> PredicateReport:
    """f-free and f-semi-saturated, reporting the first failure."""
    free = is_free(g, f)
    if not free.verdict:
        return PredicateReport("saturated", False, free.certificate_kind, free.certificate)
    semi = is_semi_saturated(g, f)
    if not semi.verdict:
        return PredicateReport("saturated", False, semi.certificate_kind, semi.certificate)
    return PredicateReport("saturated", True)


def is_dominated(g: Graph, f: Graph) -> PredicateReport:
    """Every edge of g lies in a subgraph of g isomorphic to f."""
    _require_pattern(f)
    probe = _EdgeProbe(f, g)
    for e in g.edges():
        if probe.through_edge(*e) is None:
            return PredicateReport("dominated", False, CERT_UNCOVERED_EDGE, e)
    return PredicateReport("dominated", True)


def is_dom_sat(g: Graph, f: Graph) -> PredicateReport:
    """f-dominated and f-semi-saturated."""
    dom = is_dominated(g, f)
    if not dom.verdict:
        return PredicateReport("dom-sat", False, dom.certificate_kind, dom.certificate)
    semi = is_semi_saturated(g, f)
    if not semi.verdict:
        return PredicateReport("dom-sat", False, semi.certificate_kind, semi.certificate)
    return PredicateReport("dom-sat", True)


def is_weakly_saturated(g: Graph, f: Graph) -> PredicateReport:
    """The greedy f-copy closure of g reaches the complete graph.

    Adding an edge never destroys a later opportunity (a copy through a
    still-missing edge stays new), so greedy order is equivalent to the
    ordered-completion definition; the order found is the certificate.
    """
    _require_pattern(f)
    probe = _EdgeProbe(f, g)
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
CERT_KINDS = {
    "free": (CERT_NONE, CERT_EMBEDDING),
    "saturated": (CERT_NONE, CERT_EMBEDDING, CERT_NON_EDGE),
    "semi-saturated": (CERT_NONE, CERT_NON_EDGE),
    "dominated": (CERT_NONE, CERT_UNCOVERED_EDGE),
    "dom-sat": (CERT_NONE, CERT_UNCOVERED_EDGE, CERT_NON_EDGE),
    "weakly-saturated": (CERT_CLOSURE_GAP, CERT_CLOSURE_ORDER),
}


def _is_pair(g: Graph, e) -> bool:
    """e is a pair of distinct vertices of g."""
    return isinstance(e, tuple) and len(e) == 2 and e[0] != e[1] and all(0 <= v < g.n for v in e)


def recheck_certificate(report: PredicateReport, g: Graph, f: Graph) -> bool:
    """Replay a report's certificate against (g, f).

    Returns True when the replay reproduces the report's verdict.  A
    certificate of a kind the report's predicate never emits, one naming
    a pair that is not two distinct vertices of g, a closure order that
    adds an edge twice, or an empty closure gap replays False.
    """
    kind, cert = report.certificate_kind, report.certificate
    if kind not in CERT_KINDS.get(report.predicate, ()):
        return False
    if kind == CERT_NONE:
        return run_predicate(report.predicate, g, f).verdict is report.verdict
    if kind == CERT_EMBEDDING:
        return not report.verdict and is_valid_embedding(f, g, cert)
    pairs = (cert,) if kind in (CERT_NON_EDGE, CERT_UNCOVERED_EDGE) else cert
    if not all(_is_pair(g, e) for e in pairs):
        return False
    if kind == CERT_NON_EDGE:
        u, v = cert
        if g.has_edge(u, v):
            return False
        extended = g.add_edge(u, v)
        return not report.verdict and copy_through_edge(f, extended, (u, v)) is None
    if kind == CERT_UNCOVERED_EDGE:
        u, v = cert
        if not g.has_edge(u, v):
            return False
        return not report.verdict and copy_through_edge(f, g, (u, v)) is None
    probe = _EdgeProbe(f, g)
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


# -- the tree witness lemma -------------------------------------------------


def _exists_path_from(g: Graph, alive: int, starts: int, j: int) -> bool:
    """Is there a simple path on exactly j vertices inside alive whose
    first vertex lies in starts?"""
    if j <= 0:
        return False
    starts &= alive
    if j == 1:
        return starts != 0

    def rec(cur: int, visited: int, length: int) -> bool:
        if length == j:
            return True
        for w in _bits(g.rows[cur] & alive & ~visited):
            if rec(w, visited | 1 << w, length + 1):
                return True
        return False

    return any(rec(s, 1 << s, 1) for s in _bits(starts))


def tree_witness_ok(t: Graph, j: int, u: int, v: int) -> bool:
    """Does the pair (u, v) satisfy the tree lemma for t and j?

    u, v distinct and non-adjacent, and t-u-v has no j-vertex path with
    an endpoint in N(u) | N(v).
    """
    if u == v or t.has_edge(u, v):
        return False
    alive = t.vertex_mask & ~(1 << u) & ~(1 << v)
    starts = (t.rows[u] | t.rows[v]) & alive
    return not _exists_path_from(t, alive, starts, j)


def lemma_tree_witness(t: Graph, j: int):
    """For a tree on 3 <= n < 3j vertices: "star", or a verified pair.

    The returned pair (u, v) is distinct, non-adjacent, and t-u-v has no
    j-vertex path with an endpoint in N(u) | N(v); found by brute force
    over all non-adjacent pairs with exhaustive path checking.
    """
    if not is_tree(t):
        raise ValueError("input is not a tree")
    if not 3 <= t.n < 3 * j:
        raise ValueError(f"tree order {t.n} outside the lemma range 3 <= n < {3 * j}")
    if is_star(t):
        return "star"
    for u, v in t.non_edges():
        if tree_witness_ok(t, j, u, v):
            return (u, v)
    raise RuntimeError("no witness pair found; the tree lemma should guarantee one")

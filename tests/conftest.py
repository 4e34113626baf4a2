import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest
from hypothesis import strategies as st

from domsat import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_edges,
    path_graph,
    star_graph,
)

# the pool patterns, then asymmetric and disconnected ones: 2K2, paw,
# bull, K3+K2, P3+K1 and K1,4+K2
ANCHOR_PATTERNS = (
    complete_graph(3), complete_graph(4), cycle_graph(4), cycle_graph(5),
    path_graph(3), star_graph(3), path_graph(4),
    from_edges(4, [(0, 1), (2, 3)]),
    from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    disjoint_union([complete_graph(3), complete_graph(2)]),
    disjoint_union([path_graph(3), empty_graph(1)]),
    disjoint_union([star_graph(4), complete_graph(2)]),
)


def brute_pair_firsts(g, pairs, ordered):
    """The first pair, in the order given, of each orbit of Aut(g) on pairs
    (arcs when ordered, else unordered pairs), Aut(g) found by trying all
    n! permutations."""
    autos = [p for p in permutations(range(g.n)) if g.relabel(p) == g]
    key = tuple if ordered else frozenset
    seen, firsts = set(), []
    for u, v in pairs:
        if key((u, v)) not in seen:
            firsts.append((u, v))
            seen.update(key((p[u], p[v])) for p in autos)
    return firsts


def run_python(*args: str, env_extra=None, stdin=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter in the repo root with the sources on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, input=stdin, cwd=ROOT
    )


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return from_edges(n, edges)


@pytest.fixture(scope="session")
def pool():
    """The named pattern pool used across the property batteries."""
    return {
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "K1,3": star_graph(3),
    }

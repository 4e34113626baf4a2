"""Mutation ledger: each entry breaks the program on purpose and names the
tests that must catch it.

    python tests/mutants.py

For one entry the runner copies src/ and tests/ into a temporary
directory, replaces the entry's text (which occurs exactly once) in its
file there, and runs the entry's tests in that copy with
`python -m pytest`.  The entry is killed when the tests fail and
survives when they pass; any other pytest outcome (a test that cannot
be collected, say) is an error.  The script exits 1 unless every entry
is killed.  Tier-1 runs no mutant: tests/test_package.py only checks,
with problems(), that every text occurs once and every named test
exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = "tests/test_predicates.py::test_predicates_match_their_definitions"
ANCHORS = "for x, y in _pair_orbit_firsts(arcs, _canonical_search(pattern)[2])\n"
PRUNING = "tests/test_search.py::test_pruning_is_sound"
CHILD = "depth = descend(head + split + rest, split, fixed + (v,))"
TWIN_PATH = "fixed += tuple(ones[:-1])"
FORMS = "tests/test_canon.py::test_forms_and_orders_digest"
JUMP = "                return c\n"
NAMED_AUT = "tests/test_canon.py::test_automorphism_orders_named"


class Mutant(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "drop-first-arc-anchor", "src/domsat/embed.py", ANCHORS,
        ANCHORS.replace("[2])", "[2])[1:]"), (DEFINITIONS,),
    ),
    Mutant(
        "drop-last-arc-anchor", "src/domsat/embed.py", ANCHORS,
        ANCHORS.replace("[2])", "[2])[:-1]"), (DEFINITIONS,),
    ),
    # the second anchor, only for patterns with at least three arc orbits
    Mutant(
        "drop-middle-arc-anchor", "src/domsat/embed.py", ANCHORS,
        "for x, y in (lambda fs: fs[:1] + fs[2:] if len(fs) > 2 else fs)"
        "(_pair_orbit_firsts(arcs, _canonical_search(pattern)[2]))\n",
        (DEFINITIONS,),
    ),
    # a non-edge probed with its ends' degrees as they are, not once added
    Mutant(
        "added-pair-without-new-degree", "src/domsat/embed.py",
        "degs[u] + bump, degs[v] + bump", "degs[u], degs[v]", (DEFINITIONS,),
    ),
    # every scan stops at the first pair without a copy
    Mutant(
        "scan-ignores-want", "src/domsat/embed.py",
        " is not None) is want:", " is None):", (DEFINITIONS,),
    ),
    # the closure adds the first pending pair with no copy through it
    Mutant(
        "closure-scans-for-no-copy", "src/domsat/predicates.py",
        "probe.scan(pending, 1, True)", "probe.scan(pending, 1, False)", (DEFINITIONS,),
    ),
    # a gap replays True only when some gap pair has no copy through it
    Mutant(
        "gap-replay-scans-for-no-copy", "src/domsat/predicates.py",
        "probe.scan(sorted(gap), 1, True) is None", "probe.scan(sorted(gap), 1, False) is None",
        ("tests/test_predicates.py::test_twin_rich_closure_gap_replays",),
    ),
    Mutant(
        "strict-degree-mask", "src/domsat/embed.py", "if hd >= d)", "if hd > d)",
        (DEFINITIONS,),
    ),
    Mutant(
        "closure-order-step-unchecked", "src/domsat/predicates.py",
        "        if probe.through_edge(*e) is None:\n            return False\n", "",
        ("tests/test_predicates.py::test_forged_certificates_do_not_replay"
         "[closure-order-with-no-copy]",),
    ),
    # the skip keeps each twin class's greatest member, not its least
    Mutant(
        "twin-skip-keeps-greatest", "src/domsat/embed.py",
        "least = members & -members", "least = 1 << members.bit_length() - 1",
        (DEFINITIONS,),
    ),
    # sound, so no output changes: only the number of probes shows it
    Mutant(
        "twin-check-misses-true-twins", "src/domsat/embed.py",
        " and len({row | 1 << v for v, row in enumerate(rows)}) == n", "",
        ("tests/test_predicates.py::test_pair_probes_per_twin_orbit",),
    ),
    Mutant(
        "add-keeps-old-twins", "src/domsat/embed.py",
        "        rows[v] |= 1 << u\n        self.twins = None\n", "        rows[v] |= 1 << u\n",
        ("tests/test_embed.py::test_scan_after_add_matches_a_fresh_host",),
    ),
    Mutant(
        "count-without-below", "src/domsat/embed.py",
        "mask &= (1 << image[j]) - 1", "pass",
        ("tests/test_embed.py::"
         "test_count_copies_matches_embeddings_with_constraints_placed_late",),
    ),
    Mutant(
        "floor-at-pattern-min-degree", "src/domsat/search.py",
        "if min(degs) < info.delta - 1:", "if min(degs) < info.delta:", (PRUNING,),
    ),
    # K3's tree witnesses have leaves of degree 1 = delta - 1
    Mutant(
        "weakly-saturated-floor-at-pattern-min-degree", "src/domsat/search.py",
        '    if predicate == "weakly-saturated":\n        return True\n',
        '    if predicate == "weakly-saturated":\n        return min(degs) >= info.delta\n',
        ("tests/test_search.py::test_witness_sets_match_naive_oracle",),
    ),
    Mutant(
        "dom-sat-floor-rejects-pattern-min-degree", "src/domsat/search.py",
        "0 < d < info.delta_pos", "0 < d <= info.delta_pos", (PRUNING,),
    ),
    Mutant(
        "dom-sat-sweep-starts-too-high", "src/domsat/search.py",
        "info.delta_pos + 1) // 2)", "info.delta_pos + 3) // 2)", (PRUNING,),
    ),
    # a child refined by its singleton cell only, not by the rest of the split cell
    Mutant(
        "child-refined-by-singleton-only", "src/domsat/canon.py",
        CHILD, CHILD.replace(", split,", ", [1 << v],"),
        ("tests/test_canon.py::test_canonical_search_digest",),
    ),
    # a cell left whole when it meets no splitter vertex, though it meets their neighbours
    Mutant(
        "refine-skips-by-splitter-itself", "src/domsat/canon.py",
        "near |= rows[w]", "near |= 1 << w",
        ("tests/test_canon.py::test_canonical_search_digest",),
    ),
    # a cell of mutual twins put on the path without its second-to-last vertex
    Mutant(
        "twin-path-one-short", "src/domsat/canon.py",
        TWIN_PATH, TWIN_PATH.replace("[:-1]", "[:-2]"), (NAMED_AUT,),
    ),
    # ... or with its last vertex in place of its first
    Mutant(
        "twin-path-from-second", "src/domsat/canon.py",
        TWIN_PATH, TWIN_PATH.replace("[:-1]", "[1:]"), (NAMED_AUT,),
    ),
    # swaps of every other twin, which do not generate the twins' symmetric group
    Mutant(
        "twin-swaps-skip-one", "src/domsat/canon.py",
        "zip(ones, ones[1:])", "zip(ones, ones[2:])", (NAMED_AUT,),
    ),
    # a cell split at once into singletons when its least vertex has no twin
    Mutant(
        "twin-step-on-non-twin-cells", "src/domsat/canon.py",
        "target & ~twins[", "target & twins[", (FORMS,),
    ),
    # siblings pruned by automorphisms that move the prefix
    Mutant(
        "orbit-test-without-prefix-filter", "src/domsat/canon.py",
        "_orbit_roots(n, [p for p in autos if all(p[x] == x for x in fixed)])",
        "_orbit_roots(n, list(autos))", (NAMED_AUT,),
    ),
    # base orbits taken under every generator, not the stabilizer of the earlier points
    Mutant(
        "base-orbits-without-stabilizer-filter", "src/domsat/canon.py",
        "gens = tuple(p for p in gens if p[v] == v)", "gens = tuple(gens)", (NAMED_AUT,),
    ),
    # a repeated leaf jumps back to the root, skipping the ancestor's other children
    Mutant(
        "jump-back-to-root", "src/domsat/canon.py", JUMP, JUMP.replace("c\n", "0\n"),
        ("tests/test_canon.py::test_automorphism_order_equals_self_embedding_count",),
    ),
    Mutant(
        "cuts-one-size-short", "src/domsat/graphs.py",
        "for size in range(k):", "for size in range(k - 1):",
        ("tests/test_graphs.py::test_k_connected_examples",
         "tests/test_graphs.py::test_k_edge_connected_examples"),
    ),
    Mutant(
        "has-edge-without-range-check", "src/domsat/graphs.py",
        "        if not (0 <= u < self.n and 0 <= v < self.n):\n"
        "            raise ValueError(f\"edge ({u}, {v}) outside 0..{self.n - 1}\")\n", "",
        ("tests/test_package.py::test_documented_input_errors_are_value_errors"
         "[has-edge-negative]",),
    ),
    # copy, deepcopy and pickle bypass the validating constructor
    Mutant(
        "reduce-without-constructor", "src/domsat/graphs.py",
        "return Graph, (self.n, self.rows)", "return object.__reduce__(self)",
        ("tests/test_graphs.py::test_graph_copy_deepcopy_and_pickle_round_trip",),
    ),
    # the empty graph never swept, though only dom-sat hosts need an edge
    Mutant(
        "naive-sweep-starts-at-one", "src/domsat/oracle.py",
        'start = 1 if predicate == "dom-sat" else 0', "start = 1",
        ("tests/test_search.py::test_witness_sets_match_naive_oracle",),
    ),
    Mutant(
        "known-density-rejects-least-value", "src/domsat/bounds.py",
        "if value < least:", "if value <= least:",
        ("tests/test_bounds.py::test_known_density_values",),
    ),
    Mutant(
        "lemma-path-search-never-finds", "src/domsat/verify.py",
        "    return _search(g.rows, tuple(range(j)), back, masks, [0] * j, 0, 0)\n",
        "    return False\n",
        ("tests/test_predicates.py::test_lemma_path_search_matches_vertex_sequences",),
    ),
    Mutant(
        "star-without-centre-degree", "src/domsat/graphs.py",
        " and g.n - 1 in g.degrees()", "",
        ("tests/test_graphs.py::test_is_star_matches_isomorphism_to_a_star",),
    ),
    # anchored probes run for a pattern with more vertices than the host
    Mutant(
        "anchors-kept-for-larger-pattern", "src/domsat/embed.py",
        "self.anchors = plan.anchors if pattern.n <= host.n else ()",
        "self.anchors = plan.anchors",
        ("tests/test_predicates.py::test_pattern_larger_than_host_starts_no_search",),
    ),
    # a child whose new edge ties the parent's largest key is never made
    Mutant(
        "degree-floor-strict", "src/domsat/enumeration.py",
        "if key >= floor:", "if key > floor:",
        ("tests/test_enumeration.py::test_burnside_level_counts_match_enumeration",),
    ),
    Mutant(
        "first-cell-one-endpoint", "src/domsat/enumeration.py",
        "first & (1 << u | 1 << v)", "first & 1 << u",
        ("tests/test_enumeration.py::test_burnside_level_counts_match_enumeration",),
    ),
    # sound, so no output changes: only the number of labellings shows it
    Mutant(
        "first-cell-test-dropped", "src/domsat/enumeration.py",
        "                if not _in_first_cell(child, top):\n                    continue\n", "",
        ("tests/test_enumeration.py::test_levels_labelling_count",),
    ),
    Mutant(
        "child-test-always-true", "src/domsat/enumeration.py",
        "if roots[-1] != roots[labelled.index(min(labelled))]:", "if False:",
        ("tests/test_enumeration.py::test_burnside_level_counts_match_enumeration",),
    ),
    # generators left in the child's labels, not relabelled onto its canonical form
    Mutant(
        "generators-not-conjugated", "src/domsat/enumeration.py",
        "[tuple(pos[a[v]] for v in order) for a in autos]", "list(autos)",
        ("tests/test_enumeration.py::test_burnside_level_counts_match_enumeration",),
    ),
    Mutant(
        "levels-left-unsorted", "src/domsat/enumeration.py",
        "        made.sort(key=lambda entry: graph6_encode(entry[0]))\n", "",
        ("tests/test_enumeration.py::test_seven_vertex_stream_digest",),
    ),
)


def problems() -> list[str]:
    """Entries whose text does not occur exactly once, whose replacement
    leaves the text as it is (a mutant that can only survive), or that
    name a test (or a parametrized id) the test file does not define."""
    found = []
    for m in MUTANTS:
        if m.replacement == m.text:
            found.append(f"{m.name}: its replacement equals its text")
        times = (ROOT / m.file).read_text().count(m.text)
        if times != 1:
            found.append(f"{m.name}: its text occurs {times} times in {m.file}")
        for node in m.tests:
            path, _, test = node.partition("::")
            func, _, param = test.rstrip("]").partition("[")
            source = (ROOT / path).read_text() if (ROOT / path).is_file() else ""
            if f"def {func}(" not in source or param and f'"{param}"' not in source:
                found.append(f"{m.name}: no test {node}")
    return found


def run(m: Mutant) -> str:
    """'killed', 'survived' or 'error: ...' for one entry."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        target = copy / m.file
        target.write_text(target.read_text().replace(m.text, m.replacement, 1))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(copy / "src"), env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *m.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if done.returncode in (0, 1):
        return "killed" if done.returncode else "survived"
    return f"error: pytest exited {done.returncode}: {done.stdout.strip()[-300:]}"


def main() -> int:
    broken = problems()
    if broken:
        print("\n".join(broken))
        return 1
    statuses = [(m.name, run(m)) for m in MUTANTS]
    for name, status in statuses:
        print(f"{name}: {status}")
    return 0 if all(status == "killed" for _, status in statuses) else 1


if __name__ == "__main__":
    sys.exit(main())

"""The package surface, its typed input errors, what a fresh CLI query
imports, and the demos."""

import ast
import importlib
import inspect
import re
import sys

import pytest

import domsat
from conftest import ROOT, SRC, run_python
from domsat import oracle

# submodule -> the names `from domsat import ...` has always offered from it
EXPORTS = {
    "bounds": [
        "Bound", "BoundSet", "dsat_clique_density", "dsat_clique_upper_edges",
        "known_density", "sat_clique", "star_density_candidates", "structural_bounds",
    ],
    "canon": [
        "are_isomorphic", "automorphism_order", "canonical_form", "canonical_graph6",
        "canonical_relabeling",
    ],
    "constructions": [
        "ConstructionError", "bridge_family", "bridge_pair_order", "cycle_gadget",
        "cycle_gadget_layout", "dom_turan", "near_matching", "neighborhood_family",
        "neighborhood_scan", "path_component_size", "path_family", "star_family",
        "star_plus_pair", "turan",
    ],
    "embed": [
        "copy_through_edge", "count_copies", "count_embeddings", "embedding_exists",
        "is_valid_embedding",
    ],
    "enumeration": ["all_classes", "class_count", "enumerate_graphs", "enumerate_trees"],
    "graph6": ["Graph6Error", "graph6_decode", "graph6_encode"],
    "graphs": [
        "Graph", "bridges", "complete_bipartite", "complete_graph",
        "complete_multipartite", "component_graphs", "components", "cycle_graph",
        "disjoint_union", "empty_graph", "from_edges", "is_acyclic", "is_connected",
        "is_k_connected", "is_k_edge_connected", "is_tree", "join", "path_graph",
        "star_graph",
    ],
    "predicates": [
        "PredicateReport", "is_dom_sat", "is_dominated", "is_free", "is_saturated",
        "is_semi_saturated", "is_weakly_saturated", "recheck_certificate",
        "run_predicate",
    ],
    "search": [
        "DensityProfile", "SearchCapError", "SearchResult", "density_profile", "min_edges",
    ],
    "verify": ["lemma_tree_witness", "tree_witness_ok"],
}

# modules a `compute` or `check` query never runs
NOT_ON_QUERY_PATH = (
    "domsat.bounds", "domsat.constructions", "domsat.verify", "domsat.oracle",
    "dataclasses", "fractions",
)


# -- the lazy surface ----------------------------------------------------------


def test_all_is_the_pinned_surface():
    pinned = sorted(name for names in EXPORTS.values() for name in names)
    assert len(pinned) == 74
    assert sorted(domsat.__all__) == pinned
    assert len(set(domsat.__all__)) == len(domsat.__all__)
    assert set(pinned) <= set(dir(domsat))


def test_search_takes_no_mode_option():
    # max_n is the only keyword option; a test-only sweep mode stays out
    for fn in (domsat.min_edges, domsat.density_profile):
        params = inspect.signature(fn).parameters.values()
        assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["max_n"], fn.__name__


def test_vertex_limit_is_named_not_written():
    # graphs.MAX_VERTICES is the one place the 64-vertex limit is a number
    offenders = []
    for path in sorted((SRC / "domsat").glob("*.py")):
        if path.name == "graphs.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 64:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_each_name_is_its_submodule_object():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"domsat.{module}")
        for name in names:
            assert getattr(domsat, name) is getattr(sub, name), name


def test_star_import_binds_every_name():
    space = {}
    exec("from domsat import *", space)
    assert set(domsat.__all__) <= set(space)
    assert space["Graph"] is domsat.graphs.Graph


def test_from_import_still_yields_submodules():
    from domsat import enumeration, oracle

    assert enumeration is sys.modules["domsat.enumeration"]
    assert oracle.__name__ == "domsat.oracle"


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        domsat.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from domsat import no_such_name", {})


# -- typed input errors ----------------------------------------------------------


K3, K40, K30 = (domsat.complete_graph(n) for n in (3, 40, 30))


@pytest.mark.parametrize(
    "call",
    [
        lambda: K3.subgraph(0),
        lambda: domsat.cycle_graph(2),
        lambda: domsat.star_graph(0),
        lambda: domsat.join(K40, K30),
        lambda: domsat.disjoint_union([K40, K30]),
        lambda: domsat.disjoint_union([]),
        lambda: domsat.is_k_edge_connected(K3, -1),
        lambda: domsat.cycle_gadget_layout(None, 5, 0),
        lambda: domsat.neighborhood_scan(domsat.empty_graph(3)),
        lambda: oracle.labeled_class_counts(7),
        lambda: oracle.level_counts(0),
        lambda: oracle.naive_min_edges(K3, 8, "dom-sat"),
        lambda: oracle.naive_min_edges(K3, 4, "nonsense"),
        lambda: domsat.dsat_clique_upper_edges(2, 3),
        lambda: domsat.star_density_candidates(1),
        lambda: domsat.known_density("path", r=2),
        lambda: domsat.known_density("cycle", r=3),
        lambda: domsat.known_density("star", r=1),
        lambda: domsat.known_density("star_plus", s=3),
        lambda: domsat.known_density("kt_path_sat", r=2),
        lambda: domsat.class_count(4, 7),
        lambda: domsat.class_count(11, 0),
        lambda: domsat.class_count(4, -1),
        lambda: K3.remove_edge(3, 0),
        lambda: K3.has_edge(-1, 0),
        lambda: K3.has_edge(3, 0),
    ],
    ids=[
        "subgraph-empty", "cycle-2", "star-0", "join-past-64", "union-past-64",
        "union-empty", "edge-connectivity-negative", "gadget-loop-0", "scan-edgeless",
        "oracle-sweep-7", "level-counts-0", "naive-sweep-8", "naive-sweep-unknown-predicate",
        "upper-edges-n-below-r",
        "star-candidates-1", "path-density-2", "cycle-density-3", "star-density-1",
        "star-plus-density-3", "kt-path-density-2", "class-count-m-7", "class-count-n-11",
        "class-count-m-negative", "remove-edge-outside", "has-edge-negative",
        "has-edge-past-n",
    ],
)
def test_documented_input_errors_are_value_errors(call):
    # ValueError subclasses (ConstructionError) count
    with pytest.raises(ValueError):
        call()


def test_oracle_loads_no_enumeration():
    # the oracle's class counts are a cross-check of enumeration's, and its
    # predicate decisions of predicates, embed and canon: it loads only graphs
    out = run_python(
        "-c",
        "import sys, domsat.oracle\n"
        "print(sorted(m for m in sys.modules if m.startswith('domsat.')))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['domsat.graphs', 'domsat.oracle']"


def test_mutation_ledger_entries_apply_and_name_tests():
    # runs no mutant: each text occurs once in its file, each test exists
    import mutants

    assert len(mutants.MUTANTS) == len({m.name for m in mutants.MUTANTS}) == 36
    assert mutants.problems() == []


def test_mutation_ledger_reports_an_entry_that_changes_nothing(monkeypatch):
    import mutants

    m = mutants.MUTANTS[0]
    monkeypatch.setattr(mutants, "MUTANTS", (m._replace(replacement=m.text),))
    assert mutants.problems() == [f"{m.name}: its replacement equals its text"]


# -- the import boundary ---------------------------------------------------------


def test_import_domsat_loads_no_submodule():
    out = run_python(
        "-c",
        "import sys, domsat\n"
        "print(sorted(m for m in sys.modules if m.startswith('domsat.')))"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--pattern", "Bw", "--n", "6", "--predicate", "dom-sat", "--json"],
        ["check", "--pattern", "Bw", "--graph", "C^", "--predicate", "dom-sat"],
    ],
    ids=["compute", "check"],
)
def test_query_imports_only_the_layers_it_runs(argv):
    out = run_python(
        "-c",
        "import sys\n"
        "import domsat.cli\n"
        f"code = domsat.cli.main({argv!r})\n"
        f"loaded = [m for m in {NOT_ON_QUERY_PATH!r} if m in sys.modules]\n"
        "print('loaded:', loaded, 'exit:', code)"
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "loaded: [] exit: 0"


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted((SRC / "domsat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            if "dataclasses" in roots:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_one_module_names_the_json_schema():
    naming = [p.name for p in (SRC / "domsat").glob("*.py") if "domsat/1" in p.read_text()]
    assert naming == ["_json.py"]


def test_one_module_computes_orbits():
    sources = {p.name: p.read_text() for p in (SRC / "domsat").glob("*.py")}
    for name in ("_orbit_roots", "_pair_orbit_roots"):
        defining = [m for m, text in sources.items() if f"def {name}(" in text]
        assert defining == ["canon.py"], name
    naming = [m for m, text in sources.items() if re.search(r"\b_orbit_roots\b", text)]
    assert naming == ["canon.py"]


# -- the demos -------------------------------------------------------------------


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    out = run_python(str(ROOT / "demos" / demo))
    assert out.returncode == 0, out.stderr
    assert out.stdout

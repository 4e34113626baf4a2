"""The package surface, what a fresh CLI query imports, and the demos."""

import ast
import importlib
import sys

import pytest

import domsat
from conftest import ROOT, SRC, run_python

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
        "is_semi_saturated", "is_weakly_saturated", "lemma_tree_witness",
        "recheck_certificate", "run_predicate", "tree_witness_ok",
    ],
    "search": [
        "DensityProfile", "LemmaSuiteReport", "SearchCapError", "SearchResult",
        "density_profile", "min_edges", "verify_lemma_suite",
    ],
}

# modules a `compute` or `check` query never runs
NOT_ON_QUERY_PATH = (
    "domsat.bounds", "domsat.constructions", "domsat.verify", "domsat.oracle",
    "dataclasses", "fractions",
)


# -- the lazy surface ----------------------------------------------------------


def test_all_is_the_pinned_surface():
    pinned = sorted(name for names in EXPORTS.values() for name in names)
    assert len(pinned) == 76
    assert sorted(domsat.__all__) == pinned
    assert len(set(domsat.__all__)) == len(domsat.__all__)
    assert set(pinned) <= set(dir(domsat))


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


# -- the demos -------------------------------------------------------------------


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    out = run_python(str(ROOT / "demos" / demo))
    assert out.returncode == 0, out.stderr
    assert out.stdout

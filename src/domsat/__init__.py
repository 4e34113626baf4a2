"""domsat: domination-saturation theory on small graphs, made executable.

The package decides the saturation-family predicates (free, saturated,
semi-saturated, dominated, dom-sat, weakly saturated) with re-checkable
certificates, builds and certifies the known extremal families, evaluates
every closed-form density bound exactly, and computes exact minimum edge
counts at desk scale by isomorphism-free exhaustive search.

Each public name loads its submodule on first use (PEP 562), so
`import domsat` is cheap and a caller pays only for the layers it uses.
"""

from importlib import import_module

# submodule -> the public names it exports
_EXPORTS = {
    "bounds": (
        "Bound", "BoundSet", "dsat_clique_density", "dsat_clique_upper_edges",
        "known_density", "sat_clique", "star_density_candidates", "structural_bounds",
    ),
    "canon": (
        "are_isomorphic", "automorphism_order", "canonical_form", "canonical_graph6",
        "canonical_relabeling",
    ),
    "constructions": (
        "ConstructionError", "bridge_family", "bridge_pair_order", "cycle_gadget",
        "cycle_gadget_layout", "dom_turan", "near_matching", "neighborhood_family",
        "neighborhood_scan", "path_component_size", "path_family", "star_family",
        "star_plus_pair", "turan",
    ),
    "embed": (
        "copy_through_edge", "count_copies", "count_embeddings", "embedding_exists",
        "is_valid_embedding",
    ),
    "enumeration": ("all_classes", "class_count", "enumerate_graphs", "enumerate_trees"),
    "graph6": ("Graph6Error", "graph6_decode", "graph6_encode"),
    "graphs": (
        "Graph", "bridges", "complete_bipartite", "complete_graph",
        "complete_multipartite", "component_graphs", "components", "cycle_graph",
        "disjoint_union", "empty_graph", "from_edges", "is_acyclic", "is_connected",
        "is_k_connected", "is_k_edge_connected", "is_tree", "join", "path_graph",
        "star_graph",
    ),
    "predicates": (
        "PredicateReport", "is_dom_sat", "is_dominated", "is_free", "is_saturated",
        "is_semi_saturated", "is_weakly_saturated", "recheck_certificate",
        "run_predicate",
    ),
    "search": (
        "DensityProfile", "SearchCapError", "SearchResult", "density_profile", "min_edges",
    ),
    "verify": ("lemma_tree_witness", "tree_witness_ok"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

"""solvgraph: which graphs are prime graphs of finite solvable groups.

A graph qualifies exactly when its complement is triangle-free and
3-colorable.  The package decides this with certificates, analyzes and
enumerates minimal prime graphs, and realizes admissible orientations as
explicit solvable groups whose arithmetic can be run and re-checked.

Each public name is imported from its defining module on first access
(PEP 562), so ``import solvgraph`` loads none of the submodules and a
program pays only for the ones it uses.
"""

import importlib

# The defining module of each public name.
_EXPORTS = {
    "analysis": ("DigraphAnalysis", "FittingBounds", "analyze", "fitting_bounds", "sigma_partition_bound"),
    "census": ("canonical_form", "canonical_graph", "enumerate_graphs", "isomorphic"),
    "errors": ("FormatError", "LimitExceeded"),
    "formats": (
        "emit_arc_list",
        "emit_edge_list",
        "emit_graph6",
        "parse_arc_list",
        "parse_edge_list",
        "parse_graph6",
        "parse_graph_auto",
    ),
    "graphs": (
        "Coloring",
        "INFINITE_GIRTH",
        "LabeledGraph",
        "Orientation",
        "color_with_at_most",
        "complement",
        "complete_graph",
        "cycle_graph",
        "directed_neighborhood",
        "empty_graph",
        "find_triangle",
        "girth",
        "neighborhood",
        "orientation_from_arcs",
        "path_graph",
    ),
    "minimality": (
        "MinimalityReport",
        "canonical_orientation",
        "check_minimal_lemmas",
        "contains_induced_c5",
        "enumerate_minimal",
        "is_minimal",
        "linked_vertex_duplication",
    ),
    "model": ("GroupElement", "GroupModel", "round_trip_report"),
    "realizability": (
        "GirthClassification",
        "RealizabilityVerdict",
        "classify_girth",
        "exceptional_forests",
        "is_solvable_prime_graph",
        "orient_from_coloring",
        "validate_frobenius_orientation",
    ),
    "synthesis": (
        "GroupPlan",
        "ModuleSpec",
        "build_k_action",
        "build_module",
        "estimate_order",
        "phi_sets",
        "plan_from_json_dict",
        "plan_to_json_dict",
        "select_primes",
        "synthesize",
        "validate_plan",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

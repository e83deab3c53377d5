"""solvgraph: which graphs are prime graphs of finite solvable groups.

A graph qualifies exactly when its complement is triangle-free and
3-colorable.  The package decides this with certificates, analyzes and
enumerates minimal prime graphs, and realizes admissible orientations as
explicit solvable groups whose arithmetic can be run and re-checked.
"""

from .analysis import DigraphAnalysis, FittingBounds, analyze, fitting_bounds, sigma_partition_bound
from .errors import FormatError, LimitExceeded
from .formats import (
    emit_arc_list,
    emit_edge_list,
    emit_graph6,
    parse_arc_list,
    parse_edge_list,
    parse_graph6,
    parse_graph_auto,
)
from .graphs import (
    Coloring,
    INFINITE_GIRTH,
    LabeledGraph,
    Orientation,
    canonical_form,
    canonical_graph,
    color_with_at_most,
    complement,
    complete_graph,
    cycle_graph,
    directed_neighborhood,
    empty_graph,
    enumerate_graphs,
    find_triangle,
    girth,
    isomorphic,
    neighborhood,
    orientation_from_arcs,
    path_graph,
)
from .minimality import (
    MinimalityReport,
    canonical_orientation,
    check_minimal_lemmas,
    contains_induced_c5,
    enumerate_minimal,
    is_minimal,
    linked_vertex_duplication,
)
from .model import GroupElement, GroupModel, round_trip_report
from .realizability import (
    GirthClassification,
    RealizabilityVerdict,
    classify_girth,
    exceptional_forests,
    is_solvable_prime_graph,
    orient_from_coloring,
    validate_frobenius_orientation,
)
from .synthesis import (
    GroupPlan,
    ModuleSpec,
    build_k_action,
    build_module,
    estimate_order,
    phi_sets,
    plan_from_json_dict,
    plan_to_json_dict,
    select_primes,
    synthesize,
    validate_plan,
)

__version__ = "0.1.0"

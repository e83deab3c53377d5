"""The package namespace: each public name is loaded from its module on first use."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import solvgraph

ROOT = Path(__file__).resolve().parent.parent

# The 61 public names of solvgraph 0.1.0, by defining module.
PUBLIC_NAMES = {
    "analysis": ["DigraphAnalysis", "FittingBounds", "analyze", "fitting_bounds", "sigma_partition_bound"],
    "errors": ["FormatError", "LimitExceeded"],
    "formats": [
        "emit_arc_list", "emit_edge_list", "emit_graph6", "parse_arc_list", "parse_edge_list",
        "parse_graph6", "parse_graph_auto",
    ],
    "graphs": [
        "Coloring", "INFINITE_GIRTH", "LabeledGraph", "Orientation", "canonical_form",
        "canonical_graph", "color_with_at_most", "complement", "complete_graph", "cycle_graph",
        "directed_neighborhood", "empty_graph", "enumerate_graphs", "find_triangle", "girth",
        "isomorphic", "neighborhood", "orientation_from_arcs", "path_graph",
    ],
    "minimality": [
        "MinimalityReport", "canonical_orientation", "check_minimal_lemmas", "contains_induced_c5",
        "enumerate_minimal", "is_minimal", "linked_vertex_duplication",
    ],
    "model": ["GroupElement", "GroupModel", "round_trip_report"],
    "realizability": [
        "GirthClassification", "RealizabilityVerdict", "classify_girth", "exceptional_forests",
        "is_solvable_prime_graph", "orient_from_coloring", "validate_frobenius_orientation",
    ],
    "synthesis": [
        "GroupPlan", "ModuleSpec", "build_k_action", "build_module", "estimate_order", "phi_sets",
        "plan_from_json_dict", "plan_to_json_dict", "select_primes", "synthesize", "validate_plan",
    ],
}
ALL_NAMES = [name for names in PUBLIC_NAMES.values() for name in names]


def test_public_names_are_the_defining_modules_objects():
    assert len(ALL_NAMES) == 61
    assert sorted(solvgraph.__all__) == sorted(ALL_NAMES)
    for module, names in PUBLIC_NAMES.items():
        defining = importlib.import_module(f"solvgraph.{module}")
        for name in names:
            assert getattr(solvgraph, name) is getattr(defining, name), name
    assert set(ALL_NAMES) <= set(dir(solvgraph))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        solvgraph.no_such_name  # noqa: B018
    assert not hasattr(solvgraph, "no_such_name")


def test_star_import_binds_every_name():
    scope: dict = {}
    exec("from solvgraph import *", scope)
    for name in ALL_NAMES:
        assert scope[name] is getattr(solvgraph, name), name


def test_readme_quick_start_runs_in_a_fresh_interpreter():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    check = "\nassert isomorphic(model.compute_prime_graph(), c5)"
    done = subprocess.run(
        [sys.executable, "-c", "from solvgraph import isomorphic\n" + block + check],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr

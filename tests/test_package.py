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


def _records() -> list[tuple[type, dict, dict]]:
    """One instance of each of the 15 record types: its class, its
    constructor's keyword arguments and its fields.  The fields are the
    arguments except for LabeledGraph and Orientation, whose constructors
    take edges and arcs."""
    from solvgraph.analysis import DigraphAnalysis, FittingBounds
    from solvgraph.graphs import Coloring, LabeledGraph, Orientation
    from solvgraph.minimality import MinimalityReport, MinimalLemmaReport
    from solvgraph.model import GroupElement, _ModuleFactor
    from solvgraph.realizability import GirthClassification, OrientationViolation, RealizabilityVerdict, Violation
    from solvgraph.synthesis import GroupPlan, ModuleSpec

    graph = LabeledGraph("ab", [("a", "b")])
    arc = Orientation(graph, [("a", "b")])
    module = ModuleSpec(3, 1, {"a": ((0,), (2,))})
    a, b = frozenset("a"), frozenset("b")
    analysis = dict(
        orientation=arc, o_set=a, d_set=frozenset(), i_set=b, pi_set=frozenset(), phi_set=b,
        o1_of={"b": a}, o1=frozenset(), o1_star=a, o2=a, o2_star=frozenset(),
    )
    records = [
        (LabeledGraph, {"vertices": "abc", "edges": [("a", "b")]}, {"vertices": ("a", "b", "c"), "rows": (2, 1, 0)}),
        (Orientation, {"underlying": graph, "arcs": [("a", "b")]}, {"underlying": graph, "out_rows": (2, 0)}),
        (
            GroupPlan,
            dict(orientation=arc, prime_of={"a": 2, "b": 3}, k_actions={}, modules={"b": module}, congruence="global"),
            None,
        ),
        (Coloring, {"assignment": {"a": 0, "b": 1}}, None),
        (Violation, {"kind": "triangle-in-complement", "vertices": ("a", "b", "c")}, None),
        (
            RealizabilityVerdict,
            dict(realizable=False, certificate=None, violation=Violation("complement-not-3-colorable"), search_nodes=5),
            None,
        ),
        (OrientationViolation, {"kind": "cycle", "vertices": ("a", "b", "c")}, None),
        (GirthClassification, {"status": "exceptional", "kind": "C5"}, None),
        (DigraphAnalysis, analysis, None),
        (FittingBounds, {"low": 3, "high": 4, "exact": None, "note": "note"}, None),
        (MinimalityReport, dict(minimal=False, failing_edge=("a", "b"), connectivity_ok=True, nontrivial_ok=True), None),
        (
            MinimalLemmaReport,
            dict(
                complement_not_2_colorable=True, no_complement_singletons=True, has_induced_c5=False,
                partition_classes_nonempty=True,
            ),
            None,
        ),
        (ModuleSpec, {"characteristic": 3, "dimension": 1, "generator_action": {"a": ((0,), (2,))}}, None),
        (GroupElement, {"k": (1, 0), "mods": ((2, 3),)}, None),
        (_ModuleFactor, {"vertex": "b", "prime": 3, "dim": 1, "action": {}}, None),
    ]
    return [(cls, kwargs, kwargs if fields is None else fields) for cls, kwargs, fields in records]


# repr of each of _records() when they were dataclasses
RECORD_REPRS = [
    "LabeledGraph(vertices=('a', 'b', 'c'), rows=(2, 1, 0))",
    "Orientation(underlying=LabeledGraph(vertices=('a', 'b'), rows=(2, 1)), out_rows=(2, 0))",
    "GroupPlan(orientation=Orientation(underlying=LabeledGraph(vertices=('a', 'b'), rows=(2, 1)), "
    "out_rows=(2, 0)), prime_of={'a': 2, 'b': 3}, k_actions={}, modules={'b': ModuleSpec(characteristic=3, "
    "dimension=1, generator_action={'a': ((0,), (2,))})}, congruence='global')",
    "Coloring(assignment={'a': 0, 'b': 1})",
    "Violation(kind='triangle-in-complement', vertices=('a', 'b', 'c'))",
    "RealizabilityVerdict(realizable=False, certificate=None, violation=Violation("
    "kind='complement-not-3-colorable', vertices=None), search_nodes=5)",
    "OrientationViolation(kind='cycle', vertices=('a', 'b', 'c'))",
    "GirthClassification(status='exceptional', kind='C5')",
    "DigraphAnalysis(orientation=Orientation(underlying=LabeledGraph(vertices=('a', 'b'), rows=(2, 1)), "
    "out_rows=(2, 0)), o_set=frozenset({'a'}), d_set=frozenset(), i_set=frozenset({'b'}), "
    "pi_set=frozenset(), phi_set=frozenset({'b'}), o1_of={'b': frozenset({'a'})}, o1=frozenset(), "
    "o1_star=frozenset({'a'}), o2=frozenset({'a'}), o2_star=frozenset())",
    "FittingBounds(low=3, high=4, exact=None, note='note')",
    "MinimalityReport(minimal=False, failing_edge=('a', 'b'), connectivity_ok=True, nontrivial_ok=True)",
    "MinimalLemmaReport(complement_not_2_colorable=True, no_complement_singletons=True, "
    "has_induced_c5=False, partition_classes_nonempty=True)",
    "ModuleSpec(characteristic=3, dimension=1, generator_action={'a': ((0,), (2,))})",
    "GroupElement(k=(1, 0), mods=((2, 3),))",
    "_ModuleFactor(vertex='b', prime=3, dim=1, action={})",
]
# the records with a dict field, which are unhashable
UNHASHABLE = {"GroupPlan", "Coloring", "DigraphAnalysis", "ModuleSpec", "_ModuleFactor"}


def test_records_keep_their_value_semantics():
    """Construction, defaults, equality, hashing, repr and immutability of
    the 15 record types are those of the frozen dataclasses they were;
    LabeledGraph, Orientation and GroupPlan compare only within their
    class and keep their small cached state beside the frozen fields."""
    from solvgraph import GirthClassification, analyze
    from solvgraph.graphs import LabeledGraph, Orientation
    from solvgraph.realizability import Violation

    records = _records()
    assert len(records) == len(RECORD_REPRS) == 15
    built = []
    for (cls, kwargs, fields), text in zip(records, RECORD_REPRS):
        name = cls.__name__
        record = cls(**kwargs)
        twin = cls(*kwargs.values())
        assert record == twin and not record != twin, name
        assert {f: getattr(record, f) for f in fields} == fields, name
        assert repr(record) == repr(twin) == text, name
        if name in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)
        else:
            assert hash(record) == hash(twin), name
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, None)
            with pytest.raises(AttributeError):
                delattr(record, f)
        assert {f: getattr(record, f) for f in fields} == fields, name
        built.append(record)
    assert analyze(records[8][1]["orientation"]) == built[8]
    assert Violation("triangle-in-complement").vertices is None
    assert GirthClassification("girth3").kind is None

    graph, arc, plan = built[:3]
    graph_fields, arc_fields = records[0][2], records[1][2]
    assert graph == LabeledGraph.from_rows(*graph_fields.values())
    rebuilt = Orientation.from_out_rows(*arc_fields.values())
    assert arc == rebuilt and hash(arc) == hash(rebuilt)
    assert graph != tuple(graph_fields.values()) and arc != arc.underlying
    assert graph.__eq__(arc) is NotImplemented and arc.__eq__(arc.underlying) is NotImplemented
    with pytest.raises(AttributeError):
        graph.extra = 1
    # edges and arcs are built on each read and never kept; small derived
    # state (the label index, in-masks, a plan's problems) is kept
    assert graph.edges == graph.edges == {("a", "b")}
    assert arc.arcs == arc.arcs == {("a", "b")}
    assert graph.position("c") == 2
    assert arc.in_rows is arc.in_rows == (0, 1)
    assert (arc.sources, arc.doubles, arc.sinks) == (1, 0, 2)
    assert plan.problems is plan.problems == ()
    assert "edges" not in vars(graph) and "arcs" not in vars(arc)
    assert "_index" in vars(graph) and "in_rows" in vars(arc) and "problems" in vars(plan)

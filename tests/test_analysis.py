"""Source/double/sink analysis, derived sets, and reported bounds."""

from __future__ import annotations

import json

import pytest

from helpers import (
    all_valid_orientations,
    orientation_sweep,
    pentagon_orientation,
    random_orientations,
    reference_analyze,
    relabeled,
    six_prime_example_graph,
    six_prime_example_orientation,
)
from solvgraph import (
    LabeledGraph,
    analyze,
    cycle_graph,
    enumerate_graphs,
    fitting_bounds,
    orientation_from_arcs,
    sigma_partition_bound,
    validate_frobenius_orientation,
)


def test_pentagon_analysis():
    a = analyze(pentagon_orientation())
    assert a.o_set == {"p1", "p2"}
    assert a.d_set == {"p3"}
    assert a.i_set == {"p4", "p5"}
    assert a.pi_set == {"p4"}
    assert a.phi_set == {"p5"}
    assert a.o1_of["p4"] == {"p2"}
    assert a.o1_of["p5"] == {"p1", "p2"}
    assert a.o1 == {"p2"}
    assert a.o1_star == {"p2"}
    assert a.o2 == {"p1"}
    assert a.o2_star == {"p1"}


def test_analysis_matches_the_reference():
    """Every field and the JSON bytes against the set-based analysis, on
    the sweep and on the valid random orientations."""
    for o in orientation_sweep() + tuple(random_orientations(13)):
        if validate_frobenius_orientation(o):
            continue
        a, expected = analyze(o), reference_analyze(o)
        assert a == expected, o.sorted_arcs()
        assert json.dumps(a.to_json_dict()) == json.dumps(expected.to_json_dict())


def test_six_prime_example_analysis():
    a = analyze(six_prime_example_orientation())
    assert a.o_set == {"2", "3", "5"}
    assert a.d_set == {"11"}
    assert a.i_set == {"23", "31"}
    assert a.pi_set == {"23"}
    assert a.phi_set == {"31"}


def test_single_arc_analysis():
    a = analyze(orientation_from_arcs("ab", [("a", "b")]))
    assert a.o_set == {"a"}
    assert a.d_set == frozenset()
    assert a.i_set == {"b"}
    assert a.pi_set == frozenset()
    assert a.phi_set == {"b"}


def test_isolated_vertices_count_as_sinks():
    o = orientation_from_arcs(["a", "b", "z"], [("a", "b")])
    a = analyze(o)
    assert "z" in a.i_set


def test_analyze_rejects_invalid_orientation():
    bad = orientation_from_arcs("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(ValueError):
        analyze(bad)


def test_pi_always_inside_sinks():
    for n in range(1, 6):
        for t in enumerate_graphs(n, triangle_free=True):
            for o in all_valid_orientations(t):
                a = analyze(o)
                assert a.pi_set <= a.i_set
                assert a.phi_set == a.i_set - a.pi_set
                assert a.o1 | a.o2 <= a.o_set
                assert not a.o1 & a.o2
                assert a.o1_star | a.o2_star <= a.o_set
                assert not a.o1_star & a.o2_star


def test_analysis_is_relabeling_equivariant():
    import random

    rng = random.Random(11)
    o = pentagon_orientation()
    for _ in range(20):
        new = [f"q{i}" for i in range(5)]
        rng.shuffle(new)
        rename = dict(zip(o.vertices, new))
        o2 = orientation_from_arcs(
            [rename[v] for v in o.vertices], [(rename[u], rename[v]) for u, v in o.arcs]
        )
        a, b = analyze(o), analyze(o2)
        assert {rename[v] for v in a.o_set} == set(b.o_set)
        assert {rename[v] for v in a.pi_set} == set(b.pi_set)
        assert {rename[v] for v in a.phi_set} == set(b.phi_set)


def test_fitting_bounds_on_pentagon():
    bounds = fitting_bounds(cycle_graph("abcde"))
    assert (bounds.low, bounds.high) == (3, 4)
    assert bounds.exact == 3
    assert "2O" in bounds.note and "exactly 3" in bounds.note


def test_fitting_bounds_on_six_prime_example():
    bounds = fitting_bounds(six_prime_example_graph())
    assert (bounds.low, bounds.high) == (3, 4)
    assert bounds.exact is None


def test_fitting_bounds_rejects_non_minimal():
    with pytest.raises(ValueError):
        fitting_bounds(LabeledGraph("ab", [("a", "b")]))


def test_sigma_partition_bound_examples():
    a = analyze(pentagon_orientation())
    assert sigma_partition_bound(a) == (5, 6, True)
    b = analyze(six_prime_example_orientation())
    assert sigma_partition_bound(b) == (6, 9, True)
    c = analyze(orientation_from_arcs("abc", [("a", "b"), ("b", "c")]))
    assert sigma_partition_bound(c) == (3, 3, True)


def test_analysis_json_is_ordered():
    doc = analyze(six_prime_example_orientation()).to_json_dict()
    assert doc["o"] == ["2", "3", "5"]
    assert doc["i"] == ["23", "31"]
    assert doc["schema"] == "solvgraph.analysis/1"

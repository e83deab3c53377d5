"""Group arithmetic, structural prime graphs, and the enumeration oracle."""

from __future__ import annotations

import random

import pytest

from helpers import (
    model_sigma_by_enumeration,
    orientation_sweep,
    pentagon_orientation,
    reference_k_multiply,
    reference_rho,
    sweep_plans,
)
from solvgraph import (
    GroupElement,
    GroupModel,
    LabeledGraph,
    Orientation,
    estimate_order,
    orientation_from_arcs,
    synthesize,
)
from solvgraph.errors import LimitExceeded
from solvgraph.model import round_trip_report


def _single_arc_model() -> GroupModel:
    return GroupModel(synthesize(orientation_from_arcs("ab", [("a", "b")])))


def _pentagon_model() -> GroupModel:
    return GroupModel(synthesize(pentagon_orientation()))


def _trivial_model(labels) -> GroupModel:
    return GroupModel(synthesize(Orientation(LabeledGraph(labels, []), [])))


def test_multiply_in_six_element_model():
    m = _single_arc_model()
    x = m.element({"a": 1}, {"b": (1,)})
    y = m.element({}, {"b": (1,)})
    # (v=1, k=1)(v=1, k=0) = (1 + 2*1, 1) = (0, 1)
    assert m.multiply(x, y) == m.element({"a": 1}, {"b": (0,)})


def test_identity_and_inverses():
    m = _pentagon_model()
    rng = random.Random(3)
    e = m.identity()
    for _ in range(100):
        x = m.random_element(rng)
        assert m.multiply(e, x) == x
        assert m.multiply(x, e) == x
        assert m.multiply(x, m.inverse(x)) == e


def test_multiplication_is_associative_spot_check():
    m = _pentagon_model()
    rng = random.Random(4)
    for _ in range(50):
        x, y, z = (m.random_element(rng) for _ in range(3))
        assert m.multiply(m.multiply(x, y), z) == m.multiply(x, m.multiply(y, z))


def test_order_examples_six_element_model():
    m = _single_arc_model()
    assert m.order(m.element({}, {"b": (1,)})) == 3
    assert m.order(m.element({"a": 1}, {})) == 2
    assert m.order(m.element({"a": 1}, {"b": (1,)})) == 2
    assert m.order(m.identity()) == 1


def test_order_matches_iterative_order():
    rng = random.Random(8)
    for model in (_single_arc_model(), _pentagon_model(), _trivial_model("uvw")):
        for _ in range(300):
            x = model.random_element(rng)
            assert model.order(x) == model.iterative_order(x)


def test_order_divides_group_order():
    rng = random.Random(12)
    m = _pentagon_model()
    total = m.group_order()
    for _ in range(300):
        assert total % m.order(m.random_element(rng)) == 0


def test_prime_graph_of_six_element_model():
    m = _single_arc_model()
    pg = m.compute_prime_graph()
    assert set(pg.vertices) == {"2", "3"}
    assert pg.edges == frozenset()


def test_prime_graph_of_trivial_actions_is_complete():
    m = _trivial_model("uvw")
    pg = m.compute_prime_graph()
    assert len(pg.edges) == 3


def test_pentagon_model_round_trip():
    plan = synthesize(pentagon_orientation())
    m = GroupModel(plan)
    assert m.group_order() == estimate_order(plan) == 1_009_554
    pg = m.compute_prime_graph()
    expected = {
        frozenset(e)
        for e in [("2", "3"), ("3", "7"), ("7", "13"), ("13", "43"), ("43", "2")]
    }
    assert {frozenset(e) for e in pg.edges} == expected
    dg = m.compute_frobenius_digraph()
    assert set(dg.arcs) == {
        ("2", "7"),
        ("7", "43"),
        ("2", "13"),
        ("3", "43"),
        ("3", "13"),
    }
    report = round_trip_report(plan)
    assert report["plan_valid"] and report["digraph_matches"] and report["prime_graph_matches"]


def test_round_trip_in_global_congruence_mode():
    count = 0
    for o in orientation_sweep(6):
        report = round_trip_report(synthesize(o, congruence="global"))
        assert report["plan_valid"] and report["digraph_matches"] and report["prime_graph_matches"], o.arcs
        count += 1
    assert count == 634


def test_digraph_of_single_arc_model():
    m = _single_arc_model()
    assert set(m.compute_frobenius_digraph().arcs) == {("2", "3")}


def test_digraph_of_trivial_model_is_empty():
    m = _trivial_model("uv")
    assert m.compute_frobenius_digraph().arcs == frozenset()


def test_sigma_examples():
    assert _single_arc_model().sigma_of_model() == 1
    assert _trivial_model("uvw").sigma_of_model() == 3
    assert _pentagon_model().sigma_of_model() == 2


def test_sigma_matches_enumeration():
    for model in (_single_arc_model(), _trivial_model("uvw"), _pentagon_model()):
        assert model.sigma_of_model() == model_sigma_by_enumeration(model)


def test_sigma_prime_limit():
    labels = [str(i) for i in range(13)]
    m = _trivial_model(labels)
    with pytest.raises(LimitExceeded):
        m.sigma_of_model()


def test_brute_force_examples():
    assert _single_arc_model().brute_force_prime_graph().edges == frozenset()
    two = _trivial_model("uv").brute_force_prime_graph()
    assert {frozenset(e) for e in two.edges} == {frozenset(("2", "3"))}


def test_brute_force_matches_structural_on_pentagon_model():
    m = _pentagon_model()
    structural = m.compute_prime_graph()
    enumerated = m.brute_force_prime_graph()
    assert {frozenset(e) for e in structural.edges} == {
        frozenset(e) for e in enumerated.edges
    }


def test_brute_force_cap():
    m = _pentagon_model()
    with pytest.raises(LimitExceeded):
        m.brute_force_prime_graph(cap=1000)


def test_element_shape_checks():
    m = _pentagon_model()
    other = _single_arc_model()
    with pytest.raises(ValueError):
        m.multiply(m.identity(), other.identity())
    with pytest.raises(ValueError):
        m.element({}, {"p4": (1,)})  # wrong module dimension
    e = m.identity()
    malformed = [
        GroupElement(e.k[:-1], e.mods),  # one K coordinate missing
        GroupElement(e.k, e.mods[:-1]),  # one module missing
        GroupElement(e.k, ((1, 1, 1), (1, 1))),  # module vectors too long
    ]
    for x in malformed:
        for call in (
            lambda: m.multiply(x, e),
            lambda: m.multiply(e, x),
            lambda: m.order(x),
            lambda: m.iterative_order(x),
            lambda: m.power(x, 2),
        ):
            with pytest.raises(ValueError, match="element shape does not match the model"):
                call()


def test_power_agrees_with_repeated_multiplication():
    m = _pentagon_model()
    rng = random.Random(21)
    for _ in range(20):
        x = m.random_element(rng)
        y = m.identity()
        for e in range(5):
            assert m.power(x, e) == y
            y = m.multiply(y, x)


def test_k_arithmetic_matches_reference():
    """On every sweep model, the table-driven K product and module action
    give the same tuples and (perm, scale) matrices as the earlier code."""
    rng = random.Random(10)
    for _, plan in sweep_plans(6):
        m = GroupModel(plan)
        for _ in range(4):
            k1, k2 = (tuple(rng.randrange(p) for _, p, _ in m.k_factors) for _ in range(2))
            assert m.k_multiply(k1, k2) == reference_k_multiply(m, k1, k2)
            for j in range(len(m.modules)):
                assert m.rho(j, k1) == reference_rho(m, j, k1)

"""Group arithmetic, structural prime graphs, and the enumeration oracle."""

from __future__ import annotations

import random
from itertools import product

import pytest

from helpers import (
    global_sweep_plans,
    model_sigma_by_enumeration,
    orientation_sweep,
    pentagon_orientation,
    reference_brute_force_prime_graph,
    reference_frobenius_digraph,
    reference_k_multiply,
    reference_rho,
    reference_round_trip_report,
    sweep_plans,
    transfer_sum_order,
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
from solvgraph import modmat
from solvgraph.errors import LimitExceeded
from solvgraph.formats import CONGRUENCE_PER_ARC
from solvgraph.model import BRUTE_FORCE_CAP, round_trip_report


def _single_arc_model() -> GroupModel:
    return GroupModel(synthesize(orientation_from_arcs("ab", [("a", "b")])))


def _pentagon_model() -> GroupModel:
    return GroupModel(synthesize(pentagon_orientation()))


def _trivial_model(labels) -> GroupModel:
    return GroupModel(synthesize(Orientation(LabeledGraph(labels, []), [])))


def _oracle_models() -> list[GroupModel]:
    """The sweep models small enough for brute_force_prime_graph."""
    return [GroupModel(plan) for _, plan in sweep_plans(6) if estimate_order(plan) <= BRUTE_FORCE_CAP]


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


def test_order_matches_the_transfer_sum_on_small_sweep_models():
    """On every K element of the sweep models of order at most 50,000, in
    both congruence modes, order() agrees with the transfer-sum route: once
    with a random vector per module, once with vectors v - M v in the image
    of the action minus 1, which have no fixed component."""
    rng = random.Random(26)
    compared = 0
    for plan in [plan for _, plan in sweep_plans(6)] + list(global_sweep_plans(6)):
        if estimate_order(plan) > 50_000:
            continue
        m = GroupModel(plan)
        for k in product(*(range(p) for _, p, _ in m.k_factors)):
            x = GroupElement(k, m.random_element(rng).mods)
            image = tuple(
                tuple((a - b) % f.prime for a, b in zip(v, modmat.apply(m.rho(j, k), v, f.prime)))
                for j, (f, v) in enumerate(zip(m.modules, x.mods))
            )
            for y in (x, GroupElement(k, image)):
                assert m.order(y) == transfer_sum_order(m, y), (plan.orientation, y)
                compared += 1
    assert compared == 2 * 2558


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
    for plan in global_sweep_plans(6):
        report = round_trip_report(plan)
        assert report["plan_valid"] and report["digraph_matches"] and report["prime_graph_matches"], plan.orientation.arcs
        assert report == reference_round_trip_report(plan)
        count += 1
    assert count == 634


def test_round_trip_matches_reference_per_arc():
    """The out-mask round trip gives the label-based reports over the sweep."""
    for o, plan in sweep_plans(6):
        assert round_trip_report(plan) == reference_round_trip_report(plan), o.arcs


def _round_trip_with_arc(monkeypatch, plan, edit) -> tuple[bool, bool, bool]:
    """The report's three verdicts when edit(out, i, j) changes the first
    arc i -> j of the model's arc masks."""
    original = GroupModel._frobenius_out_rows

    def edited(self):
        out = original(self)
        i = next(i for i, row in enumerate(out) if row)
        edit(out, i, (out[i] & -out[i]).bit_length() - 1)
        return out

    with monkeypatch.context() as patched:
        patched.setattr(GroupModel, "_frobenius_out_rows", edited)
        report = round_trip_report(plan)
    return report["plan_valid"], report["digraph_matches"], report["prime_graph_matches"]


def _reverse(out, i, j):
    out[i] ^= 1 << j
    out[j] |= 1 << i


def _drop(out, i, j):
    out[i] ^= 1 << j


def test_round_trip_detects_a_reversed_or_missing_arc(monkeypatch):
    """A reversed arc keeps the prime graph but not the digraph; a
    missing arc breaks both.  Every sweep plan with an arc is checked."""
    plans = [plan for o, plan in sweep_plans(6) if o.arcs]
    assert len(plans) > 600
    for plan in plans:
        assert _round_trip_with_arc(monkeypatch, plan, _reverse) == (True, False, True)
        assert _round_trip_with_arc(monkeypatch, plan, _drop) == (True, False, False)


def test_each_plan_is_checked_once(monkeypatch):
    """Over the sweep, synthesize, round_trip_report and GroupModel verify
    each module once, run validate_plan once per plan, and ask for each
    orientation's verdict at most twice (in select_primes and in
    validate_plan) while its witness searches run once."""
    from solvgraph import analysis, model, realizability, synthesis

    witness_searches = ("_least_cycle", "_least_directed_3_path", "find_triangle")
    counts = dict.fromkeys(
        ("validate_frobenius_orientation", "validate_plan", "verify_module") + witness_searches, 0
    )

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module in (analysis, synthesis, model):
        for name in counts:
            if hasattr(module, name):
                counting(module, name)
    for name in witness_searches:
        counting(realizability, name)
    # fresh objects, so that no verdict kept by an earlier test is reused
    sweep = [Orientation.from_out_rows(o.underlying, o.out_rows) for o in orientation_sweep(6)]
    module_count = 0
    for o in sweep:
        plan = synthesize(o, congruence="per-arc")
        report = round_trip_report(plan)
        assert report["plan_valid"] and report["digraph_matches"] and report["prime_graph_matches"]
        GroupModel(plan)
        module_count += len(plan.modules)
    assert (len(sweep), module_count) == (634, 1321)
    assert counts["verify_module"] == module_count
    assert counts["validate_plan"] == len(sweep)
    assert counts["validate_frobenius_orientation"] <= 2 * len(sweep)
    assert [counts[name] for name in witness_searches] == [len(sweep)] * 3


def test_invalid_plan_gets_no_model():
    """A plan corrupted through its JSON: GroupModel refuses it, and the
    round trip reports it invalid with the plan's estimated order."""
    import json

    from solvgraph import plan_from_json_dict, plan_to_json_dict

    doc = plan_to_json_dict(synthesize(pentagon_orientation()))
    doc["primes"]["p3"] = "11"  # breaks the global congruence (11 != 1 mod 6)
    plan = plan_from_json_dict(json.loads(json.dumps(doc)))
    with pytest.raises(ValueError, match=r"^invalid plan: double prime 11 is not 1 mod 6$"):
        GroupModel(plan)
    assert round_trip_report(plan) == reference_round_trip_report(plan) == {
        "schema": "solvgraph.verify/1",
        "plan_valid": False,
        "digraph_matches": False,
        "prime_graph_matches": False,
        "group_order": estimate_order(plan),
    }


def test_module_on_a_non_vertex_is_a_plan_problem():
    """A plan built in code, past plan_from_json_dict's name checks, with a
    module keyed by a label that is not a vertex: the self-check reports
    it, so GroupModel refuses the plan and the round trip calls it
    invalid."""
    from solvgraph import GroupPlan, validate_plan

    good = synthesize(pentagon_orientation())
    plan = GroupPlan(
        good.orientation,
        good.prime_of,
        good.k_actions,
        {**good.modules, "zz": good.modules["p4"]},
        good.congruence,
    )
    assert validate_plan(plan) == ["module on 'zz', which is not a vertex"]
    assert plan.problems == ("module on 'zz', which is not a vertex",)
    with pytest.raises(ValueError, match=r"^invalid plan: module on 'zz', which is not a vertex$"):
        GroupModel(plan)
    assert round_trip_report(plan) == {
        "schema": "solvgraph.verify/1",
        "plan_valid": False,
        "digraph_matches": False,
        "prime_graph_matches": False,
        "group_order": estimate_order(good),
    }


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
    trivial = _trivial_model("uv")
    assert trivial.k_factors == ()  # K is the trivial group
    two = trivial.brute_force_prime_graph()
    assert {frozenset(e) for e in two.edges} == {frozenset(("2", "3"))}


def test_brute_force_matches_structural_on_sweep():
    """On every sweep model within the cap, the oracle recomputes the
    structural prime graph, and the earlier oracle agrees."""
    models = _oracle_models()
    assert len(models) == 188
    for m in models:
        enumerated = m.brute_force_prime_graph()
        assert enumerated == m.compute_prime_graph()
        assert enumerated == reference_brute_force_prime_graph(m)


def test_sieved_k_orders_match_k_order():
    """The cyclic-subgroup sieve, by the group law, gives k_order's closed
    form on every K element of every sweep model within the cap, in both
    congruence modes."""
    global_models = [GroupModel(plan) for plan in global_sweep_plans(6) if estimate_order(plan) <= BRUTE_FORCE_CAP]
    total = 0
    for m in _oracle_models() + global_models:
        elements = list(product(*(range(p) for _, p, _ in m.k_factors)))
        assert m._k_orders() == {k: m.k_order(k) for k in elements}
        total += len(elements)
    assert total == 4426 + 4282


def test_k_order_counts_coordinates_mod_their_primes():
    """Unreduced and negative coordinates get the order that repeated
    k_multiply finds, here with two sources twisting one double."""
    m = GroupModel(synthesize(orientation_from_arcs("abcd", [("a", "c"), ("b", "c"), ("c", "d")])))
    assert [role for _, _, role in m.k_factors] == ["O", "O", "D"]
    pa, pb, q = (p for _, p, _ in m.k_factors)
    identity = m.identity().k
    for k in [(pa, -pb, 1 - q), (2 * pa, -pb, q), (pa + 1, -1, -q), (-1, 0, 3 * q - 1)]:
        power, n = k, 1
        while m.k_multiply(identity, power) != identity:
            power, n = m.k_multiply(power, k), n + 1
        assert m.k_order(k) == n, k


def test_oracle_k_multiply_count(monkeypatch):
    """Over the sweep models within the cap, the oracle walks each cyclic
    subgroup of K once (k_order by square-and-multiply, since replaced by
    its closed form, made 96,493 calls for every element)."""
    models = _oracle_models()
    calls = 0
    k_multiply = GroupModel.k_multiply

    def counted(self, k1, k2):
        nonlocal calls
        calls += 1
        return k_multiply(self, k1, k2)

    monkeypatch.setattr(GroupModel, "k_multiply", counted)
    for m in models:
        m.brute_force_prime_graph()
    assert calls == 9093


def test_digraph_matches_the_arc_list_construction():
    """On every sweep model, the out-mask digraph equals the earlier one
    built from the arc list: vertex order, out-masks and underlying rows."""
    for _, plan in sweep_plans(6):
        m = GroupModel(plan)
        digraph, expected = m.compute_frobenius_digraph(), reference_frobenius_digraph(m)
        assert digraph.vertices == expected.vertices
        assert digraph.out_rows == expected.out_rows
        assert digraph.underlying.rows == expected.underlying.rows


def test_brute_force_matches_structural_on_pentagon_model():
    m = _pentagon_model()
    structural = m.compute_prime_graph()
    enumerated = m.brute_force_prime_graph()
    assert {frozenset(e) for e in structural.edges} == {
        frozenset(e) for e in enumerated.edges
    }


def test_brute_force_cap():
    """The oracle refuses the smallest sweep model above BRUTE_FORCE_CAP."""
    plan = min((plan for _, plan in sweep_plans(6) if estimate_order(plan) > BRUTE_FORCE_CAP), key=estimate_order)
    message = f"group order {estimate_order(plan)} exceeds the cap {BRUTE_FORCE_CAP}"
    with pytest.raises(LimitExceeded, match=f"^{message}$"):
        GroupModel(plan).brute_force_prime_graph()


def test_brute_force_cap_on_an_order_of_4797_digits():
    """The oracle refuses a group whose order str() cannot write by default:
    per-arc synthesis on one of the 12 minimal graphs on 9 vertices, by
    its canonical orientation."""
    arcs = [(0, 7), (0, 8), (1, 7), (1, 8), (2, 7), (2, 8), (3, 6), (3, 8), (4, 6), (4, 8), (5, 6), (5, 8), (6, 7)]
    o = orientation_from_arcs(map(str, range(9)), [(str(u), str(v)) for u, v in arcs])
    plan = synthesize(o, congruence=CONGRUENCE_PER_ARC)
    assert 10**4796 <= estimate_order(plan) < 10**4797
    with pytest.raises(LimitExceeded, match=f"^group order [0-9]{{4797}} exceeds the cap {BRUTE_FORCE_CAP}$"):
        GroupModel(plan).brute_force_prime_graph()


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


def test_element_rejects_unknown_keys():
    """On a -> b, a is the K vertex and b the module; each dict refuses a
    key of the other kind, and keys that are no vertex at all."""
    m = _single_arc_model()
    with pytest.raises(ValueError, match=r"^'b' is not a K vertex of the model$"):
        m.element({"b": 1}, {"a": (1,)})
    with pytest.raises(ValueError, match=r"^'b' is not a K vertex of the model$"):
        m.element({"b": 1}, {})
    with pytest.raises(ValueError, match=r"^'z' is not a K vertex of the model$"):
        m.element({"z": 1}, {})
    with pytest.raises(ValueError, match=r"^'a' is not a module vertex of the model$"):
        m.element({}, {"a": (1,)})
    with pytest.raises(ValueError, match=r"^'z' is not a module vertex of the model$"):
        m.element({"a": 1}, {"z": (1,)})
    assert m.element({"a": 1}, {"b": (1,)}) != m.identity()


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

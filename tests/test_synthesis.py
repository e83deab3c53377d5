"""Prime selection, action exponents, module construction, full plans."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from helpers import (
    dense_identity,
    dense_nullity,
    global_sweep_plans,
    orientation_sweep,
    pentagon_orientation,
    random_orientations,
    reference_phi_sets,
    reference_roles,
    reference_validate_plan,
    sweep_plans,
)
from solvgraph import (
    build_k_action,
    build_module,
    directed_neighborhood,
    estimate_order,
    orientation_from_arcs,
    phi_sets,
    plan_from_json_dict,
    plan_to_json_dict,
    select_primes,
    synthesize,
    validate_frobenius_orientation,
    validate_plan,
)
from solvgraph import modmat
from solvgraph.errors import LimitExceeded
from solvgraph.graphs import labels_at
from solvgraph.modmat import to_rows
from solvgraph.primes import is_prime, smallest_prime


def test_phi_sets_examples():
    o = pentagon_orientation()
    assert phi_sets(o, "p4") == ({"p2", "p3"}, {"p1"})
    assert phi_sets(o, "p5") == ({"p1", "p2"}, frozenset())
    single = orientation_from_arcs("ab", [("a", "b")])
    assert phi_sets(single, "b") == ({"a"}, frozenset())
    with pytest.raises(ValueError):
        phi_sets(o, "p1")  # not a sink


def test_phi_sets_match_the_reference():
    """Sets and error messages against the dict-based rings, for every
    vertex of the sweep and of random orientations, cyclic ones included."""
    for o in orientation_sweep() + tuple(random_orientations(17)):
        for v in o.vertices + ("missing",):
            try:
                expected = reference_phi_sets(o, v)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    phi_sets(o, v)
            else:
                assert phi_sets(o, v) == expected


def test_phi_sets_disjoint_on_validated_orientations():
    from helpers import orientation_sweep
    from solvgraph import analyze

    for o in orientation_sweep(5):
        a = analyze(o)
        for v in a.i_set:
            phi1, phi2 = phi_sets(o, v)
            assert not phi1 & phi2


def test_vertex_roles_are_the_analysis_partition():
    """The Orientation's role masks partition the vertices as the plain
    definition on neighbour-set dicts does, on the sweep and on random
    orientations, cyclic ones included; on the sweep they are analyze's
    O, D and I."""
    from solvgraph import analyze

    def classes(o):
        return [frozenset(labels_at(o.vertices, m)) for m in (o.sources, o.doubles, o.sinks)]

    cyclic = 0
    for o in orientation_sweep() + tuple(random_orientations(11)):
        role = reference_roles(o)
        assert classes(o) == [{v for v, r in role.items() if r == kind} for kind in "ODI"]
        cyclic += any(x.kind == "cycle" for x in validate_frobenius_orientation(o))
    assert cyclic == 176
    for o in orientation_sweep():
        a = analyze(o)
        assert classes(o) == [a.o_set, a.d_set, a.i_set]


def test_select_primes_global_mode():
    assert select_primes(pentagon_orientation()) == {
        "p1": 2,
        "p2": 3,
        "p3": 7,
        "p4": 43,
        "p5": 13,
    }


def test_select_primes_per_arc_mode():
    assert select_primes(pentagon_orientation(), congruence="per-arc") == {
        "p1": 2,
        "p2": 3,
        "p3": 5,
        "p4": 31,
        "p5": 7,
    }


def test_select_primes_single_arc():
    o = orientation_from_arcs("ab", [("a", "b")])
    assert select_primes(o) == {"a": 2, "b": 3}


def test_select_primes_two_components():
    o = orientation_from_arcs("abcd", [("a", "b"), ("c", "d")])
    assert select_primes(o) == {"a": 2, "c": 3, "b": 5, "d": 7}


def test_select_primes_checks_the_orientation_then_the_mode():
    bad = orientation_from_arcs("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    for mode in ("global", "bogus"):
        with pytest.raises(ValueError, match="^orientation is not valid: directed-3-path$"):
            select_primes(bad, congruence=mode)
    with pytest.raises(ValueError, match="^unknown congruence mode 'bogus'$"):
        select_primes(pentagon_orientation(), congruence="bogus")


def test_select_primes_are_smallest_admissible():
    """Replacing any chosen prime with a smaller unused one must break a
    congruence or distinctness (smallest-first contract)."""
    import random

    from helpers import orientation_sweep
    from solvgraph import analyze

    rng = random.Random(17)
    sample = rng.sample(list(orientation_sweep(5)), 100)
    for o in sample:
        for mode in ("global", "per-arc"):
            chosen = select_primes(o, congruence=mode)
            a = analyze(o)
            for v, p in chosen.items():
                if v in a.o_set:
                    modulus = 1
                elif v in a.d_set:
                    sources = a.o_set if mode == "global" else directed_neighborhood(o, v, 1, "in")
                    modulus = 1
                    for u in sources:
                        modulus *= chosen[u]
                else:
                    modulus = 1
                    for u in phi_sets(o, v)[0]:
                        modulus *= chosen[u]
                others = {q for w, q in chosen.items() if w != v}
                for candidate in range(2, p):
                    if not is_prime(candidate):
                        continue
                    assert candidate in others or candidate % modulus != 1 % modulus


def test_prime_search_cap():
    with pytest.raises(LimitExceeded):
        smallest_prime(10**7, set(), cap=10**5)


def test_build_k_action_examples():
    assert build_k_action(2, 7) == 6
    assert build_k_action(3, 7) == 2
    assert build_k_action(2, 5) == 4
    with pytest.raises(ValueError):
        build_k_action(3, 5)


def test_build_k_action_order_is_exact():
    for p, q in [(2, 7), (3, 7), (2, 5), (5, 11), (3, 13)]:
        e = build_k_action(p, q)
        assert pow(e, p, q) == 1
        assert all(pow(e, i, q) != 1 for i in range(1, p))


def test_build_module_scalar_case():
    o = pentagon_orientation()
    primes = select_primes(o)
    spec = build_module(o, "p5", primes, {("p1", "p3"): 6})
    assert spec.characteristic == 13 and spec.dimension == 1
    lam2 = to_rows(spec.generator_action["p1"])[0][0]
    lam3 = to_rows(spec.generator_action["p2"])[0][0]
    assert pow(lam2, 2, 13) == 1 and lam2 != 1
    assert pow(lam3, 3, 13) == 1 and lam3 != 1
    # together they span an order-6 scalar action with no fixed points
    assert all(pow(lam2 * lam3 % 13, k, 13) != 1 for k in range(1, 6))


def test_build_module_swap_case():
    o = pentagon_orientation()
    primes = select_primes(o)
    spec = build_module(o, "p4", primes, {("p1", "p3"): 6})
    assert spec.characteristic == 43 and spec.dimension == 2
    swap = to_rows(spec.generator_action["p1"])
    assert swap == ((0, 1), (1, 0))
    shifted = [[x - y for x, y in zip(row, one)] for row, one in zip(swap, dense_identity(2))]
    assert dense_nullity(shifted, 43) == 1


def test_build_module_minus_one_case():
    o = orientation_from_arcs("ab", [("a", "b")])
    spec = build_module(o, "b", {"a": 2, "b": 3}, {})
    assert spec.characteristic == 3 and spec.dimension == 1
    assert to_rows(spec.generator_action["a"]) == ((2,),)


def test_build_module_requires_in_neighbors():
    o = orientation_from_arcs(["a", "b", "z"], [("a", "b")])
    with pytest.raises(ValueError):
        build_module(o, "z", {"a": 2, "b": 3, "z": 5}, {})


def test_synthesize_pentagon_plan():
    plan = synthesize(pentagon_orientation())
    assert plan.prime_of == {"p1": 2, "p2": 3, "p3": 7, "p4": 43, "p5": 13}
    assert plan.k_actions == {("p1", "p3"): 6}
    assert set(plan.modules) == {"p4", "p5"}
    assert plan.modules["p4"].dimension == 2
    assert plan.modules["p5"].dimension == 1
    assert estimate_order(plan) == 1_009_554
    assert validate_plan(plan) == []


def test_synthesize_single_arc_plan():
    plan = synthesize(orientation_from_arcs("ab", [("a", "b")]))
    assert plan.prime_of == {"a": 2, "b": 3}
    assert plan.k_actions == {}
    assert estimate_order(plan) == 6


def test_synthesize_one_vertex_plan():
    from solvgraph import LabeledGraph, Orientation

    plan = synthesize(Orientation(LabeledGraph(["v"], []), []))
    assert plan.prime_of == {"v": 2}
    assert plan.modules == {}
    assert estimate_order(plan) == 2


def test_synthesize_rejects_invalid_orientation():
    bad = orientation_from_arcs("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    with pytest.raises(ValueError):
        synthesize(bad)


def test_synthesize_is_deterministic():
    a = json.dumps(plan_to_json_dict(synthesize(pentagon_orientation())))
    b = json.dumps(plan_to_json_dict(synthesize(pentagon_orientation())))
    assert a == b


def test_plan_json_round_trip():
    plan = synthesize(pentagon_orientation())
    doc = json.loads(json.dumps(plan_to_json_dict(plan)))
    again = plan_from_json_dict(doc)
    assert again.prime_of == plan.prime_of
    assert again.k_actions == plan.k_actions
    assert again.modules == plan.modules
    assert validate_plan(again) == []


def test_plan_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        plan_from_json_dict({"schema": "something-else"})


def test_validate_plan_catches_corruption():
    plan = synthesize(pentagon_orientation())
    doc = plan_to_json_dict(plan)
    doc["primes"]["p3"] = "11"  # breaks the global congruence (11 != 1 mod 6)
    broken = plan_from_json_dict(doc)
    assert validate_plan(broken)

    doc2 = plan_to_json_dict(plan)
    doc2["modules"]["p4"]["actions"]["p1"] = [[1, 0], [0, 1]]
    broken2 = plan_from_json_dict(doc2)
    assert any("identity" in p for p in validate_plan(broken2))


def _corrupted(o, module: str, **actions) -> list[str]:
    """validate_plan's problems once the module's action rows for the given
    vertices are replaced in the plan JSON of synthesize(o)."""
    doc = plan_to_json_dict(synthesize(o))
    doc["modules"][module]["actions"].update(actions)
    return validate_plan(plan_from_json_dict(json.loads(json.dumps(doc))))


def test_validate_plan_reports_each_module_rejection():
    """Every verify_module rejection, with its exact message.  On the
    pentagon plan, module p4 lives over GF(43) in dimension 2: the
    1-in-neighborhood is p2 (prime 3) and p3 (7), the 2-in-neighborhood
    p1 (2), which swaps the basis and conjugates p3 to its 6th power.
    36 has order 3 and 41 order 7 mod 43."""
    o = pentagon_orientation()
    assert validate_plan(synthesize(o)) == []
    assert _corrupted(o, "p4", p2=[[2, 0], [0, 2]], p3=[[1, 0], [0, 1]]) == [
        "matrix for 'p2' does not have order 3",
        "matrix for 'p3' is the identity",
    ]
    assert _corrupted(o, "p5", p1=[[3]]) == ["matrix for 'p1' does not have order 2"]
    # diag(36, 21) to the 7th power is diag(36, 1), which fixes e_2
    assert _corrupted(o, "p4", p2=[[36, 0], [0, 1]], p3=[[1, 0], [0, 21]]) == [
        "fixed point in the span of the 1-in-neighborhood action"
    ]
    assert _corrupted(o, "p4", p1=[[42, 0], [0, 42]]) == [
        "no fixed space for any power of the matrix of 'p1'"
    ]
    assert _corrupted(o, "p4", p2=[[36, 0], [0, 6]]) == [
        "module 'p4': matrices of 'p1' and 'p2' must commute"
    ]
    assert _corrupted(o, "p4", p3=[[41, 0], [0, 41]]) == [
        "module 'p4': conjugation by 'p1' disagrees with the exponent action on 'p3'"
    ]
    doc = plan_to_json_dict(synthesize(o))
    del doc["modules"]["p4"]["actions"]["p1"]
    assert validate_plan(plan_from_json_dict(doc)) == [
        "acting vertices ['p2', 'p3'] do not match the in-neighborhoods"
    ]
    # A 1-in-neighborhood with a vertex of prime 2 acts in dimension 3 on
    # the path a -> v <- c <- b: a transposition of order 2 does not
    # commute with c's diagonal matrix of distinct entries.
    path = orientation_from_arcs("abcv", [("a", "v"), ("b", "c"), ("c", "v")])
    assert _corrupted(path, "v", a=[[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == [
        "matrices for 'a' and 'c' do not commute"
    ]


def test_module_problems_come_in_vertex_order_not_label_order():
    """verify_module names the acting vertices in vertex order, also where
    their labels sort the other way and where the plan JSON lists the
    actions out of vertex order.  On zs -> d <- as, d -> v, the module of v
    has dimension 6 = 2 * 3 and zs, as act through B-shifts."""
    o = orientation_from_arcs(["zs", "as", "d", "v"], [("zs", "d"), ("as", "d"), ("d", "v")])
    swap = [[int((i, j) in ((0, 1), (1, 0)) or i == j > 1) for j in range(6)] for i in range(6)]
    assert _corrupted(o, "v", zs=swap) == [
        "module 'v': matrices of 'zs' and 'as' must commute",
        "module 'v': conjugation by 'zs' disagrees with the exponent action on 'd'",
    ]
    doc = plan_to_json_dict(synthesize(o))
    actions = doc["modules"]["v"]["actions"]
    one = dense_identity(6)
    doc["modules"]["v"]["actions"] = {"d": actions["d"], "as": one, "zs": one}
    assert validate_plan(plan_from_json_dict(doc)) == [
        "matrix for 'zs' is the identity",
        "matrix for 'as' is the identity",
    ]
    path = orientation_from_arcs(["x", "b", "c", "v"], [("x", "v"), ("b", "c"), ("c", "v")])
    assert _corrupted(path, "v", x=[[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == [
        "matrices for 'x' and 'c' do not commute"
    ]


# sha256 over the sweep of each plan's sorted-key JSON, one line per plan
PLAN_BYTES = {
    "global": "ba87bdbec302da09cba3754768f4338dd1582cbfe4e4cfbbb5ca033524177013",
    "per-arc": "e6a2a436e8d88ed4d222afc901517d3cf579e8aabea8b555972813dee0da9cb5",
}


def test_plan_bytes_over_the_sweep_are_pinned():
    plans = {
        "global": global_sweep_plans(),
        "per-arc": [plan for _, plan in sweep_plans()],
    }
    for mode, pin in PLAN_BYTES.items():
        digest = hashlib.sha256()
        for plan in plans[mode]:
            digest.update(json.dumps(plan_to_json_dict(plan), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == pin, mode


def _one_field_corruptions(plan, k: int):
    """Copies of a plan's document with one field changed each: a module
    matrix squared, a module dropped or moved to a vertex without one, a
    k-action exponent set to 1 or its arc reversed, two primes swapped,
    a prime made composite, an arc reversed, the congruence mode flipped.
    Where a plan offers many choices of one kind, k picks one."""
    doc = plan_to_json_dict(plan)

    def changed(edit) -> dict:
        new = json.loads(json.dumps({key: value for key, value in doc.items() if key != "modules"}))
        new["modules"] = {v: {**body, "actions": dict(body["actions"])} for v, body in doc["modules"].items()}
        edit(new)
        return new

    def pick(seq):
        return seq[k % len(seq)]

    vertices = doc["vertices"]
    if plan.modules:
        v = pick(sorted(plan.modules))
        spec = plan.modules[v]
        w, mat = pick(sorted(spec.generator_action.items()))
        rows = [list(row) for row in to_rows(modmat.multiply(mat, mat, spec.characteristic))]
        yield changed(lambda d: d["modules"][v]["actions"].update({w: rows}))
        yield changed(lambda d: d["modules"].pop(v))
        u = pick([u for u in vertices if u not in plan.modules])
        yield changed(lambda d: d["modules"].update({u: d["modules"].pop(v)}))
    for i, item in enumerate(doc["k_actions"]):
        yield changed(lambda d, i=i: d["k_actions"][i].update(exponent=1))
        yield changed(lambda d, i=i, item=item: d["k_actions"][i].update(actor=item["target"], target=item["actor"]))
    if len(vertices) > 1:
        u, v = pick(list(zip(vertices, vertices[1:])))
        yield changed(lambda d: d["primes"].update({u: d["primes"][v], v: d["primes"][u]}))
    v = pick(vertices)
    yield changed(lambda d: d["primes"].update({v: str(4 * int(d["primes"][v]))}))
    if doc["arcs"]:
        i = pick(range(len(doc["arcs"])))
        yield changed(lambda d: d["arcs"][i].reverse())
    flipped = "global" if doc["congruence"] == "per-arc" else "per-arc"
    yield changed(lambda d: d.update(congruence=flipped))


def test_validate_plan_matches_the_reference_on_corrupted_plans():
    """Problem lists, order included, against the earlier self-check that
    read the roles from a dict, on every per-arc sweep plan corrupted one
    field at a time through JSON."""
    corrupted = with_problems = 0
    for k, (_, plan) in enumerate(sweep_plans()):
        for doc in _one_field_corruptions(plan, k):
            broken = plan_from_json_dict(doc)
            problems = validate_plan(broken)
            assert problems == reference_validate_plan(broken)
            corrupted += 1
            with_problems += bool(problems)
    assert corrupted > 3000 and with_problems > 500, (corrupted, with_problems)

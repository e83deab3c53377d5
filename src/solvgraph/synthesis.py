"""From a validated orientation to an explicit solvable-group recipe.

The construction realizes an orientation as the fixed-point structure of
a group G = J x| (U x| T):

* sources get distinct primes p and a torus T, the direct product of the
  groups C_p;
* doubles get primes q with the congruences needed for a fixed-point-free
  action of C_p on C_q along each arc p -> q, assembled into U;
* each sink v gets a prime r and a module over the r-element field.  The
  module is induced from a faithful linear character of the cyclic group
  A spanned by the 1-in-neighborhood of v: the basis is indexed by the
  cyclic group B spanned by the 2-in-neighborhood, A acts diagonally with
  a B-conjugation twist, and B permutes the basis regularly.

Irreducibility of the modules is never assumed.  What the prime graph
actually depends on holds for every faithful character lambda of A, of
exact order m = prod p_w, so the smallest one is taken and no candidate
can fail.  Every diagonal entry of the product g of the A-generators is
a product of elements of exact orders p_w, hence of exact order m, so no
g**(m/p) has eigenvalue 1 and A acts fixed-point-freely; each B-shift
has order p_s and unit scales, so it fixes a vector; the diagonal
matrices commute.  validate_plan checks all of this independently.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from . import modmat
from .formats import CONGRUENCE_GLOBAL, CONGRUENCE_PER_ARC, DEFAULT_PRIME_CAP
from .graphs import Frozen, Orientation, _bits, labels_at, mask_ring, orientation_from_arcs
from .primes import elements_of_order, is_prime, smallest_prime
from .realizability import validate_frobenius_orientation

PLAN_SCHEMA = "solvgraph.plan/1"


class ModuleSpec(NamedTuple):
    """Module over a prime field with one action matrix per acting vertex.

    Matrices are monomial, held as ``(perm, scale)`` pairs over the field
    with ``characteristic`` elements (see modmat); vertices absent from
    the map act trivially.
    """

    characteristic: int
    dimension: int
    generator_action: dict[str, modmat.Monomial]


class GroupPlan(Frozen):
    """Recipe for an orientation's group.  It is not modified after it is
    built, so ``problems``, its validate_plan verdict, is kept."""

    orientation: Orientation
    prime_of: dict[str, int]
    k_actions: dict[tuple[str, str], int]
    modules: dict[str, ModuleSpec]
    congruence: str

    def __init__(self, orientation, prime_of, k_actions, modules, congruence):
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "prime_of", prime_of)
        object.__setattr__(self, "k_actions", k_actions)
        object.__setattr__(self, "modules", modules)
        object.__setattr__(self, "congruence", congruence)

    @cached_property
    def problems(self) -> tuple[str, ...]:
        return tuple(validate_plan(self))


def _k_arcs(o: Orientation) -> list[tuple[str, str]]:
    """The source-to-double arcs, which carry the action exponents, in
    the order of sorted_arcs."""
    vs = o.vertices
    return [(vs[i], vs[j]) for i in _bits(o.sources) for j in _bits(o.out_rows[i] & o.doubles)]


def phi_sets(o: Orientation, v: str) -> tuple[frozenset[str], frozenset[str]]:
    """(1-in-neighborhood, 2-in-neighborhood) of a sink v.

    Disjoint whenever the underlying graph is triangle-free, since the
    two distances cannot coincide.
    """
    i = o.underlying.position(v)
    if not o.sinks >> i & 1:
        raise ValueError(f"vertex {v!r} has outgoing arcs; phi sets need a sink")
    into = o.in_rows
    return (
        frozenset(labels_at(o.vertices, into[i])),
        frozenset(labels_at(o.vertices, mask_ring(into, i, 2))),
    )


def select_primes(
    o: Orientation,
    congruence: str = CONGRUENCE_GLOBAL,
    cap: int = DEFAULT_PRIME_CAP,
) -> dict[str, int]:
    """Assign distinct primes to vertices, smallest admissible first.

    Sources take the smallest unused primes in vertex order.  Doubles
    need q = 1 (mod p): in global mode p is the product of all source
    primes, in per-arc mode only of the in-neighbor primes.  A sink with
    a nonempty 1-in-neighborhood needs r = 1 modulo the product of those
    primes; other sinks take the smallest unused prime.  Raises
    ValueError for an invalid orientation, then for an unknown mode.
    """
    violations = validate_frobenius_orientation(o)
    if violations:
        raise ValueError(f"orientation is not valid: {violations[0].kind}")
    if congruence not in (CONGRUENCE_GLOBAL, CONGRUENCE_PER_ARC):
        raise ValueError(f"unknown congruence mode {congruence!r}")
    vs = o.vertices
    assigned: dict[str, int] = {}
    used: set[int] = set()

    def take(modulus: int) -> int:
        p = smallest_prime(modulus, used, cap)
        used.add(p)
        return p

    def in_product(i: int) -> int:
        return math.prod(assigned[u] for u in labels_at(vs, o.in_rows[i]))

    for i in _bits(o.sources):
        assigned[vs[i]] = take(1)
    o_product = math.prod(assigned.values())  # the sources are all assigned so far
    for i in _bits(o.doubles):
        assigned[vs[i]] = take(o_product if congruence == CONGRUENCE_GLOBAL else in_product(i))
    for i in _bits(o.sinks):  # the modulus is over the 1-in-neighborhood
        assigned[vs[i]] = take(in_product(i))
    return assigned


def build_k_action(p: int, q: int) -> int:
    """Smallest exponent e > 1 of multiplicative order exactly p mod q."""
    if q % p != 1:
        raise ValueError(f"{q} is not 1 mod {p}")
    e = next(elements_of_order(p, (p,), q), None)
    if e is None:
        raise ValueError(f"no element of order {p} mod {q}")
    return e


def build_module(
    o: Orientation,
    v: str,
    primes: dict[str, int],
    k_actions: dict[tuple[str, str], int],
) -> ModuleSpec:
    """Module for sink v over the field with primes[v] elements.

    Induced from the smallest faithful character; every faithful
    character gives a valid module (see the module docstring).
    """
    phi1_set, phi2_set = phi_sets(o, v)
    if not phi1_set:
        raise ValueError(f"sink {v!r} has an empty 1-in-neighborhood; use a plain cyclic factor")
    phi1 = [u for u in o.vertices if u in phi1_set]
    phi2 = [u for u in o.vertices if u in phi2_set]
    r = primes[v]
    m = math.prod(primes[w] for w in phi1)
    if (r - 1) % m != 0:
        raise ValueError(f"module prime {r} is not 1 mod {m}")
    # B is cyclic of order d, the product of the 2-in-neighborhood primes;
    # its canonical generator b is the product of the per-vertex generators
    d = math.prod(primes[s] for s in phi2)
    lam = next(elements_of_order(m, tuple(primes[w] for w in phi1), r))
    action: dict[str, modmat.Monomial] = {}
    for w in phi1:
        p_w = primes[w]
        lam_w = pow(lam, m // p_w, r)
        # b conjugates the cyclic factor of w by the product of the exponents
        conj = math.prod(k_actions.get((s, w), 1) for s in phi2)
        inv = pow(conj, -1, p_w)
        diag = []
        exponent = 1
        for _ in range(d):
            diag.append(pow(lam_w, exponent, r))
            exponent = exponent * inv % p_w
        action[w] = (tuple(range(d)), tuple(diag))
    for s in phi2:
        # the basis rotation realizing the generator of s: 1 mod p_s, 0 mod
        # the complementary part of d
        rest = d // primes[s]
        shift = pow(rest, -1, primes[s]) * rest % d
        action[s] = (tuple((j + shift) % d for j in range(d)), (1,) * d)
    return ModuleSpec(characteristic=r, dimension=d, generator_action=action)


def verify_module(
    plan: GroupPlan,
    v: str,
    phi1: frozenset[str],
    phi2: frozenset[str],
) -> list[str]:
    """Check every invariant of the module of sink v; empty list means
    verified.

    Conditions: each matrix has the multiplicative order of its vertex
    prime; the matrices of the 1-in-neighborhood commute and the cyclic
    group they span acts fixed-point-freely; every 2-in-neighborhood
    matrix has a nonzero fixed space.  The matrices must also define a
    single action of the top group: the source matrices commute, and
    conjugating a double's matrix by a source's matrix matches the
    exponent action on the cyclic factor.
    """
    spec = plan.modules[v]
    r = spec.characteristic
    d = spec.dimension
    mats = spec.generator_action
    if set(mats) != phi1 | phi2:
        return [f"acting vertices {sorted(mats)} do not match the in-neighborhoods"]
    o = plan.orientation
    acting = [w for w in o.vertices if w in mats]  # problems come in vertex order
    for w in acting:
        if len(mats[w][0]) != d:
            return [f"matrix for {w!r} has wrong shape"]
    identity = modmat.identity(d)
    problems = []
    for w in acting:
        p_w = plan.prime_of[w]
        if mats[w] == identity:
            problems.append(f"matrix for {w!r} is the identity")
        elif not modmat.power_is_identity(mats[w], p_w, r):
            problems.append(f"matrix for {w!r} does not have order {p_w}")
    phi1_list = [w for w in acting if w in phi1]
    for i, w in enumerate(phi1_list):
        for u in phi1_list[i + 1 :]:
            if not modmat.commute(mats[w], mats[u], r):
                problems.append(f"matrices for {w!r} and {u!r} do not commute")
    if problems:
        return problems

    # The product g of the 1-in-neighborhood matrices spans their group
    # and g**m is the identity.  If a power g**k with 0 < k < m fixes a
    # vector, so does g**gcd(k, m), and with it g**(m/p) for a prime p
    # dividing m: those powers are the only ones to test.
    m = math.prod(plan.prime_of[w] for w in phi1)
    generator = identity
    for w in phi1_list:
        generator = modmat.multiply(generator, mats[w], r)
    if modmat.has_fixed_vector(generator, r, [m // plan.prime_of[w] for w in phi1_list]):
        problems.append("fixed point in the span of the 1-in-neighborhood action")
    # The nontrivial powers of a matrix of prime order span the same
    # group, so they share one fixed space.
    for s in acting:
        if s in phi2 and not modmat.has_fixed_vector(mats[s], r):
            problems.append(f"no fixed space for any power of the matrix of {s!r}")
    if problems:
        return problems

    # The double matrices all lie in the 1-in-neighborhood, so they
    # commute already; the source matrices may also act through phi2.
    u_actors = [w for w in labels_at(o.vertices, o.doubles) if w in phi1]
    t_actors = [w for w in labels_at(o.vertices, o.sources) if w in mats]
    for i, w in enumerate(t_actors):
        for u in t_actors[i + 1 :]:
            if not modmat.commute(mats[w], mats[u], r):
                problems.append(f"module {v!r}: matrices of {w!r} and {u!r} must commute")
    # s w s**-1 = w**e, checked as s w = w**e s: s is invertible, its
    # order was checked above.
    for s in t_actors:
        for w in u_actors:
            e = plan.k_actions.get((s, w), 1)
            twisted = modmat.multiply(modmat.power(mats[w], e, r), mats[s], r)
            if modmat.multiply(mats[s], mats[w], r) != twisted:
                problems.append(
                    f"module {v!r}: conjugation by {s!r} disagrees with the "
                    f"exponent action on {w!r}"
                )
    return problems


def synthesize(
    o: Orientation,
    congruence: str = CONGRUENCE_GLOBAL,
    prime_cap: int = DEFAULT_PRIME_CAP,
) -> GroupPlan:
    """Full recipe for a group whose fixed-point digraph is o.

    Deterministic given o and its vertex order.  Arcs between sources and
    doubles become cyclic action exponents; arcs into sinks become module
    actions.  Raises ValueError when o fails validation and
    LimitExceeded when a prime search passes ``prime_cap``.
    """
    primes = select_primes(o, congruence, prime_cap)
    vs = o.vertices
    k_actions = {(u, v): build_k_action(primes[u], primes[v]) for u, v in _k_arcs(o)}
    modules = {vs[i]: build_module(o, vs[i], primes, k_actions) for i in _bits(o.sinks) if o.in_rows[i]}
    plan = GroupPlan(
        orientation=o,
        prime_of=primes,
        k_actions=k_actions,
        modules=modules,
        congruence=congruence,
    )
    if plan.problems:
        raise AssertionError(f"synthesized plan fails validation: {list(plan.problems)}")
    return plan


def estimate_order(plan: GroupPlan) -> int:
    """Group order: r**dim per module sink, the vertex prime elsewhere."""
    total = 1
    for v in plan.orientation.vertices:
        spec = plan.modules.get(v)
        total *= plan.prime_of[v] if spec is None else spec.characteristic**spec.dimension
    return total


def validate_plan(plan: GroupPlan) -> list[str]:
    """Independent re-check of every plan invariant, the orientation's
    validity first; empty list means valid.  Problems are reported in
    vertex order.  ``plan.problems`` keeps this verdict.
    """
    problems: list[str] = []
    o = plan.orientation
    if validate_frobenius_orientation(o):
        return ["orientation fails validation"]
    vs = o.vertices
    values = list(plan.prime_of.values())
    if sorted(plan.prime_of) != sorted(vs):
        problems.append("prime map does not cover the vertex set")
        return problems
    if len(set(values)) != len(values):
        problems.append("primes are not distinct")
    not_prime = [f"{p} (vertex {v!r}) is not prime" for v, p in plan.prime_of.items() if not is_prime(p)]
    if not_prime:
        return problems + not_prime  # the congruence checks below divide by the primes
    if plan.congruence not in (CONGRUENCE_GLOBAL, CONGRUENCE_PER_ARC):
        problems.append(f"unknown congruence mode {plan.congruence!r}")
    if plan.congruence == CONGRUENCE_GLOBAL:
        o_product = math.prod(plan.prime_of[v] for v in labels_at(vs, o.sources))
        for v in labels_at(vs, o.doubles):
            if plan.prime_of[v] % o_product != 1 % o_product:
                problems.append(f"double prime {plan.prime_of[v]} is not 1 mod {o_product}")
    expected_actions = _k_arcs(o)
    for u, v in expected_actions:
        if plan.prime_of[v] % plan.prime_of[u] != 1:
            problems.append(f"arc {u!r}->{v!r}: {plan.prime_of[v]} is not 1 mod {plan.prime_of[u]}")
    if set(plan.k_actions) != set(expected_actions):
        problems.append("action exponents do not match the source-to-double arcs")
    for (u, v), e in plan.k_actions.items():
        if (u, v) not in expected_actions:
            continue
        p, q = plan.prime_of[u], plan.prime_of[v]
        if not 1 < e < q or pow(e, p, q) != 1 or e % q == 1:
            problems.append(f"exponent {e} for {u!r}->{v!r} has wrong order")
    for i in _bits(o.sinks):
        v, into = vs[i], o.in_rows[i]
        if into and v not in plan.modules:
            problems.append(f"sink {v!r} is missing a module")
        if not into and v in plan.modules:
            problems.append(f"isolated sink {v!r} should be a plain cyclic factor")
    for v, spec in plan.modules.items():
        if v not in vs:  # a plan built in code may name anything
            problems.append(f"module on {v!r}, which is not a vertex")
            continue
        if not o.sinks >> o.underlying.position(v) & 1:
            problems.append(f"module on {v!r}, which is not a sink")
            continue
        if not is_prime(spec.characteristic):
            problems.append(f"module characteristic {spec.characteristic} for {v!r} is not prime")
            continue
        phi1, phi2 = phi_sets(o, v)
        m = math.prod(plan.prime_of[w] for w in phi1)
        d = math.prod(plan.prime_of[s] for s in phi2)
        if (spec.characteristic - 1) % m != 0:
            problems.append(f"module prime {spec.characteristic} is not 1 mod {m}")
        if spec.characteristic != plan.prime_of[v]:
            problems.append(f"module prime for {v!r} disagrees with the prime map")
        if spec.dimension != d:
            problems.append(f"module for {v!r} has dimension {spec.dimension}, expected {d}")
        problems.extend(verify_module(plan, v, phi1, phi2))
    return problems


# -- serialization -----------------------------------------------------------


def plan_to_json_dict(plan: GroupPlan) -> dict:
    o = plan.orientation
    position = o.underlying.position
    return {
        "schema": PLAN_SCHEMA,
        "congruence": plan.congruence,
        # three stacked abelian layers (modules, doubles, sources)
        "fitting_length_bound": 3,
        "vertices": list(o.vertices),
        "arcs": [[u, v] for u, v in o.sorted_arcs()],
        "primes": {v: str(plan.prime_of[v]) for v in o.vertices},
        "k_actions": [
            {"actor": u, "target": v, "exponent": e}
            for (u, v), e in sorted(
                plan.k_actions.items(), key=lambda kv: (position(kv[0][0]), position(kv[0][1]))
            )
        ],
        "modules": {
            v: {
                "characteristic": str(spec.characteristic),
                "dimension": spec.dimension,
                "actions": {
                    w: modmat._dense_rows(mat)
                    for w, mat in sorted(spec.generator_action.items(), key=lambda kv: position(kv[0]))
                },
            }
            for v, spec in sorted(plan.modules.items(), key=lambda kv: position(kv[0]))
        },
    }


def _require(ok: bool, path: str, what: str) -> None:
    if not ok:
        raise ValueError(f"plan: {path!r} {what}")


def _get(doc: dict, key: str, kind: type, path: str = "", default=None):
    """doc[key] as a ``kind``, or ``default`` when the key is absent and
    that is not None.  Integers may be JSON numbers or decimal strings."""
    where = f"{path}.{key}" if path else key
    if key not in doc:
        _require(default is not None, where, "is missing")
        return default
    value = doc[key]
    if kind is int:
        text = str(value) if type(value) in (int, str) else ""
        _require(text.isascii() and text.removeprefix("-").isdigit(), where, "must be an integer")
        return int(text)
    _require(isinstance(value, kind), where, f"must be {_KIND_NAMES[kind]}")
    return value


_KIND_NAMES = {str: "a string", list: "a list", dict: "an object"}


def plan_from_json_dict(doc: dict) -> GroupPlan:
    """Plan from its JSON document.

    Raises ValueError naming the key path on a missing key, a wrong type,
    an unknown vertex, a matrix that is not square and monomial, a module
    without actions, or a module dimension other than its matrices' size.
    """
    _require(isinstance(doc, dict), "plan", "must be an object")
    if doc.get("schema") != PLAN_SCHEMA:
        raise ValueError(f"unsupported plan schema {doc.get('schema')!r}")
    vertices = _get(doc, "vertices", list)
    for i, v in enumerate(vertices):
        _require(isinstance(v, str), f"vertices[{i}]", "must be a string")
    names = set(vertices)

    def vertex(value, path: str) -> str:
        _require(isinstance(value, str) and value in names, path, "must name a vertex")
        return value

    arcs = _get(doc, "arcs", list, default=[])
    for i, arc in enumerate(arcs):
        _require(isinstance(arc, list) and len(arc) == 2, f"arcs[{i}]", "must be a pair")
        for x in arc:
            vertex(x, f"arcs[{i}]")
    primes = _get(doc, "primes", dict)
    for v in primes:
        vertex(v, f"primes.{v}")
    k_actions = {}
    for i, item in enumerate(_get(doc, "k_actions", list, default=[])):
        path = f"k_actions[{i}]"
        _require(isinstance(item, dict), path, "must be an object")
        ends = tuple(vertex(_get(item, key, str, path), f"{path}.{key}") for key in ("actor", "target"))
        k_actions[ends] = _get(item, "exponent", int, path)
    modules = {}
    for v, body in _get(doc, "modules", dict, default={}).items():
        path = f"modules.{v}"
        vertex(v, path)
        _require(isinstance(body, dict), path, "must be an object")
        r = _get(body, "characteristic", int, path)
        _require(r >= 2, f"{path}.characteristic", "must be at least 2")
        dimension = _get(body, "dimension", int, path)
        actions = _get(body, "actions", dict, path)
        _require(bool(actions), f"{path}.actions", "must hold at least one action")
        action = {}
        for w, rows in actions.items():
            where = f"{path}.actions.{w}"
            vertex(w, where)
            _require(
                isinstance(rows, list)
                and all(isinstance(row, list) and all(type(x) is int for x in row) for row in rows),
                where,
                "must be a list of integer rows",
            )
            try:
                action[w] = modmat.from_rows(rows, r)
            except ValueError as exc:
                raise ValueError(f"plan: {where!r}: {exc}") from None
            _require(
                len(rows) == dimension, f"{path}.dimension", f"must equal the size of {where!r}"
            )
        modules[v] = ModuleSpec(r, dimension, action)
    return GroupPlan(
        orientation=orientation_from_arcs(vertices, arcs),
        prime_of={v: _get(primes, v, int, "primes") for v in vertices},
        k_actions=k_actions,
        modules=modules,
        congruence=_get(doc, "congruence", str, default=CONGRUENCE_GLOBAL),
    )

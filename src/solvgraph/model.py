"""Executable finite-group arithmetic for synthesized plans.

A model realizes G = J x| K with K = U x| T.  Elements are coordinate
tuples: one exponent per top-level cyclic factor (the K part) and one
vector per module factor (the J part).  Multiplication implements the
semidirect twist directly,

    (v1, k1) (v2, k2) = (v1 + k1 . v2,  k1 k2),

where k1 . v2 applies the module action of k1, and the K product twists
double coordinates by the exponent actions of the source part.  Keeping
elements as coordinates makes groups of order well past 10**6 cheap to
handle.

The module doubles as the oracle that closes the constructive loop: the
prime graph and its arc structure are recomputed from the model alone
and compared against the plan's orientation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from math import gcd, prod
from typing import NamedTuple

from . import modmat
from .errors import LimitExceeded
from .graphs import LabeledGraph, Orientation, _bits, complement, labels_at
from .primes import decimal
from .synthesis import GroupPlan, estimate_order

SIGMA_PRIME_LIMIT = 12
BRUTE_FORCE_CAP = 2_000_000


class GroupElement(NamedTuple):
    """K-part exponents plus one coordinate vector per module factor."""

    k: tuple[int, ...]
    mods: tuple[tuple[int, ...], ...]


class _ModuleFactor(NamedTuple):
    vertex: str
    prime: int
    dim: int
    action: dict[str, modmat.Monomial]  # acting vertex -> matrix, trivial omitted


class GroupModel:
    """Concrete group built from a GroupPlan; immutable once constructed.

    Raises ValueError naming the plan's first problem when the plan fails
    validate_plan.  Sources and doubles become the top-level cyclic
    factors, sinks the module factors.
    """

    def __init__(self, plan: GroupPlan):
        if plan.problems:
            raise ValueError(f"invalid plan: {plan.problems[0]}")
        self.plan = plan
        o = plan.orientation
        self.k_factors: tuple[tuple[str, int, str], ...] = tuple(
            (v, plan.prime_of[v], "O" if o.sources >> i & 1 else "D")
            for i, v in enumerate(o.vertices)
            if not o.sinks >> i & 1
        )
        self.k_exponents = dict(plan.k_actions)
        factors = []
        for v in labels_at(o.vertices, o.sinks):
            if v in plan.modules:
                spec = plan.modules[v]
                factors.append(
                    _ModuleFactor(v, spec.characteristic, spec.dimension, spec.generator_action)
                )
            else:
                factors.append(_ModuleFactor(v, plan.prime_of[v], 1, {}))
        self.modules: tuple[_ModuleFactor, ...] = tuple(factors)

    # -- tables built on first use (round_trip_report reads neither) --------

    @cached_property
    def _twists(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per K factor, the (source index, exponent) pairs that twist it:
        empty for sources and for doubles no source acts on."""
        sources = {v: i for i, (v, _, role) in enumerate(self.k_factors) if role == "O"}
        return tuple(
            tuple((sources[u], e) for (u, t), e in self.k_exponents.items() if t == v and u in sources)
            if role == "D"
            else ()
            for v, _, role in self.k_factors
        )

    @cached_property
    def _actors(self) -> tuple[tuple[tuple[int, modmat.Monomial], ...], ...]:
        """Per module, its actors as (K index, matrix): doubles first, then
        sources, each in vertex order; the order rho multiplies them in."""
        return tuple(
            tuple(
                (i, f.action[v])
                for role_wanted in ("D", "O")
                for i, (v, _, role) in enumerate(self.k_factors)
                if role == role_wanted and v in f.action
            )
            for f in self.modules
        )

    # -- element plumbing --------------------------------------------------

    def identity(self) -> GroupElement:
        return GroupElement(
            k=tuple(0 for _ in self.k_factors),
            mods=tuple((0,) * f.dim for f in self.modules),
        )

    def element(self, k_part: dict[str, int], module_parts: dict[str, tuple[int, ...]]) -> GroupElement:
        """Build an element from per-vertex coordinates, reducing as needed.

        Raises ValueError naming a k_part key that is not a K vertex, or a
        module_parts key that is not a module vertex.
        """
        k_vertices = {v for v, _, _ in self.k_factors}
        for v in k_part:
            if v not in k_vertices:
                raise ValueError(f"{v!r} is not a K vertex of the model")
        module_vertices = {f.vertex for f in self.modules}
        for v in module_parts:
            if v not in module_vertices:
                raise ValueError(f"{v!r} is not a module vertex of the model")
        k = []
        for v, p, _ in self.k_factors:
            k.append(k_part.get(v, 0) % p)
        mods = []
        for f in self.modules:
            vec = module_parts.get(f.vertex, (0,) * f.dim)
            if len(vec) != f.dim:
                raise ValueError(f"module part for {f.vertex!r} has wrong length")
            mods.append(tuple(x % f.prime for x in vec))
        return GroupElement(tuple(k), tuple(mods))

    def random_element(self, rng) -> GroupElement:
        k = tuple(rng.randrange(p) for _, p, _ in self.k_factors)
        mods = tuple(
            tuple(rng.randrange(f.prime) for _ in range(f.dim)) for f in self.modules
        )
        return GroupElement(k, mods)

    def group_order(self) -> int:
        return estimate_order(self.plan)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for _, p, _ in self.k_factors) + tuple(
            f.prime for f in self.modules
        )

    # -- K arithmetic --------------------------------------------------------

    def k_multiply(self, k1: tuple[int, ...], k2: tuple[int, ...]) -> tuple[int, ...]:
        """k1 k2: a double coordinate of k2 is raised by the exponent
        action of each source coordinate of k1 before it is added."""
        out = []
        for (_, p, _), twists, x, y in zip(self.k_factors, self._twists, k1, k2):
            for i, e in twists:
                if k1[i]:
                    y = y * pow(e, k1[i], p) % p
            out.append((x + y) % p)
        return tuple(out)

    def k_order(self, k: tuple[int, ...]) -> int:
        """Order of the K element k in closed form.

        A source prime p divides it exactly when its coordinate is nonzero
        mod p.  A double prime q divides it exactly when its coordinate u is
        nonzero mod q and the source part fixes C_q: each twist e**t it applies there is
        1 mod q (the twists have distinct prime orders, so their product E
        is 1 only when each is).  Once the source part is the identity, the
        q coordinate of k**n is u (1 + E + ... + E**(n-1)), which is 0 when
        E != 1 and n u when E = 1.
        """
        order = 1
        for (_, p, _), twists, x in zip(self.k_factors, self._twists, k):
            if x % p and all(pow(e, k[i], p) == 1 for i, e in twists):
                order *= p
        return order

    # -- module action ---------------------------------------------------------

    def rho(self, j: int, k: tuple[int, ...]) -> modmat.Monomial:
        """Action matrix of the K-element k on module j.

        The element factors as (double part) times (source part), and the
        matrix multiplies in the same order; coordinates without a stored
        action act trivially.
        """
        r = self.modules[j].prime
        mat = None
        for i, action in self._actors[j]:
            if k[i]:
                step = modmat.power(action, k[i], r)
                mat = step if mat is None else modmat.multiply(mat, step, r)
        return mat if mat is not None else modmat.identity(self.modules[j].dim)

    # -- group arithmetic -------------------------------------------------------

    def _check_shape(self, x: GroupElement) -> None:
        """ValueError unless x has one K coordinate per top-level factor and
        one vector of the module's dimension per module."""
        if (
            len(x.k) != len(self.k_factors)
            or len(x.mods) != len(self.modules)
            or any(len(vec) != f.dim for vec, f in zip(x.mods, self.modules))
        ):
            raise ValueError("element shape does not match the model")

    def multiply(self, x: GroupElement, y: GroupElement) -> GroupElement:
        self._check_shape(x)
        self._check_shape(y)
        mods = []
        for j, f in enumerate(self.modules):
            moved = modmat.apply(self.rho(j, x.k), y.mods[j], f.prime)
            mods.append(tuple((a + b) % f.prime for a, b in zip(x.mods[j], moved)))
        return GroupElement(self.k_multiply(x.k, y.k), tuple(mods))

    def inverse(self, x: GroupElement) -> GroupElement:
        n = self.order(x)
        return self.power(x, n - 1)

    def power(self, x: GroupElement, e: int) -> GroupElement:
        self._check_shape(x)
        result = self.identity()
        base = x
        while e > 0:
            if e & 1:
                result = self.multiply(result, base)
            base = self.multiply(base, base)
            e >>= 1
        return result

    def order(self, x: GroupElement) -> int:
        """Structural element order.

        The K-part order n comes from k_order's closed form.  A module
        prime r divides the order exactly when the transfer sum
        (I + M + ... + M**(n-1)) moves the module coordinate v off zero,
        M being the action of the K part.  M**n = 1 (validate_plan checks
        that the matrices satisfy the relations of K) and n is prime to r
        (a valid plan's primes are distinct), so the sum acts as n on the
        fixed space of M and as 0 on the image of M - 1: r divides the
        order exactly when v has a nonzero component in the fixed space.
        """
        self._check_shape(x)
        total = self.k_order(x.k)
        for j, f in enumerate(self.modules):
            if any(x.mods[j]) and modmat.has_fixed_component(self.rho(j, x.k), x.mods[j], f.prime):
                total *= f.prime
        return total

    def iterative_order(self, x: GroupElement) -> int:
        """Order by repeated multiplication; the slow cross-check for order()."""
        self._check_shape(x)
        limit = self.group_order()
        identity = self.identity()
        rhos = [self.rho(j, x.k) for j in range(len(self.modules))]
        primes = [f.prime for f in self.modules]
        current = x
        n = 1
        while current != identity:
            mods = []
            for j, f in enumerate(self.modules):
                moved = modmat.apply(rhos[j], current.mods[j], primes[j])
                mods.append(tuple((a + b) % primes[j] for a, b in zip(x.mods[j], moved)))
            current = GroupElement(self.k_multiply(x.k, current.k), tuple(mods))
            n += 1
            if n > limit:
                raise AssertionError("order exceeds the group order; broken model")
        return n

    # -- prime graph and digraph -------------------------------------------------

    def _prime_labels(self) -> tuple[str, ...]:
        return tuple(str(p) for p in self.primes())

    def _frobenius_out_rows(self) -> list[int]:
        """Out-masks of the arcs actor -> acted-upon over the prime
        positions: K factors first, then modules, as in primes().

        A source acts on a double exactly when an action exponent links
        them; a top-level generator acts on a module exactly when its
        matrix fixes no nonzero vector there (the nontrivial powers of a
        matrix of prime order share one fixed space).  Top-level pairs of
        equal role commute (direct products), and module pairs commute
        too, so no other pair is an arc.
        """
        nk = len(self.k_factors)
        position = {v: i for i, (v, _, _) in enumerate(self.k_factors)}
        out = [0] * (nk + len(self.modules))
        for u, v in self.k_exponents:
            out[position[u]] |= 1 << position[v]
        for j, f in enumerate(self.modules):
            for v, mat in f.action.items():
                if not modmat.has_fixed_vector(mat, f.prime):
                    out[position[v]] |= 1 << (nk + j)
        return out

    def compute_prime_graph(self) -> LabeledGraph:
        """Structural prime graph: the non-arcs of the Frobenius digraph."""
        return complement(self.compute_frobenius_digraph().underlying)

    def compute_frobenius_digraph(self) -> Orientation:
        """Arcs actor -> acted-upon on the non-edges of the prime graph."""
        out = self._frobenius_out_rows()
        rows = list(out)
        for i, row in enumerate(out):
            for j in _bits(row):
                rows[j] |= 1 << i
        return Orientation.from_out_rows(LabeledGraph.from_rows(self._prime_labels(), rows), out)

    # -- element-order statistics ---------------------------------------------

    def sigma_of_model(self) -> int:
        """Largest number of distinct primes dividing one element order.

        Subset search with a single witness per candidate set: unit
        exponents on the chosen top-level coordinates, and a common
        fixed-vector requirement (nonzero kernel of action minus
        identity) for every chosen module.
        """
        labels = self.primes()
        if len(labels) > SIGMA_PRIME_LIMIT:
            raise LimitExceeded(
                f"sigma search limited to {SIGMA_PRIME_LIMIT} primes"
            )
        nk = len(self.k_factors)
        best = 0
        for mask in range(1 << len(labels)):
            size = mask.bit_count()
            if size <= best:
                continue
            witness = tuple(mask >> i & 1 for i in range(nk))
            target = prod(p for (_, p, _), t in zip(self.k_factors, witness) if t)
            if self.k_order(witness) == target and all(
                modmat.has_fixed_vector(self.rho(j, witness), self.modules[j].prime)
                for j in _bits(mask >> nk)
            ):
                best = size
        return best

    def _cyclic_generators(self) -> list[tuple[tuple[int, ...], int]]:
        """One generator of each cyclic subgroup of K, with its order, by
        the group law alone.

        Walks the cyclic subgroup of each element not covered yet, once:
        if k, k**2, ..., k**m is the first return to the identity, then for
        each d dividing m with k**d not covered, k**d generates a new
        subgroup of order n = m / d, and its generators k**(d j), j prime
        to n, are covered.
        """
        identity = tuple(0 for _ in self.k_factors)
        covered: set[tuple[int, ...]] = set()
        generators = []
        for k in product(*(range(p) for _, p, _ in self.k_factors)):
            if k in covered:
                continue
            powers = [k]
            while powers[-1] != identity:
                powers.append(self.k_multiply(powers[-1], k))
            m = len(powers)
            for d in range(1, m + 1):
                if m % d or powers[d - 1] in covered:
                    continue
                n = m // d
                generators.append((powers[d - 1], n))
                covered.update(powers[d * j - 1] for j in range(1, n + 1) if gcd(j, n) == 1)
        return generators

    def brute_force_prime_graph(self) -> LabeledGraph:
        """Prime graph by exhausting the group elements.

        Iterates one generator k of each cyclic subgroup of K, with its
        order from _cyclic_generators; powers of (w, k) accumulate the
        transfer sum of w, so the primes realized together with k's order
        are read off the transfer matrices.  The other generators k**e
        realize the same primes: e is prime to ord(k), so some e' = e
        (mod ord(k)) is prime to |G|, and x -> x**e' is an order-preserving
        bijection of G that carries the elements over k onto those over
        k**e.  Independent of the structural rules in compute_prime_graph.
        """
        order = self.group_order()
        if order > BRUTE_FORCE_CAP:
            raise LimitExceeded(f"group order {decimal(order)} exceeds the cap {BRUTE_FORCE_CAP}")
        labels = self._prime_labels()
        edges: set[tuple[str, str]] = set()
        for k, n_k in self._cyclic_generators():
            realized = [
                str(p) for _, p, _ in self.k_factors if n_k % p == 0
            ]
            for j, f in enumerate(self.modules):
                if not modmat.transfer_is_zero(self.rho(j, k), n_k, f.prime):
                    realized.append(str(f.prime))
            for u, v in combinations(realized, 2):
                edges.add((u, v))
        return LabeledGraph(labels, edges)


def round_trip_report(plan: GroupPlan) -> dict:
    """Recompute the digraph and prime graph from the model and compare
    with the plan's orientation under the vertex-to-prime relabeling.

    A plan with problems gets no model: it is reported as invalid, with
    both comparisons false.
    """
    report = {
        "schema": "solvgraph.verify/1",
        "plan_valid": False,
        "digraph_matches": False,
        "prime_graph_matches": False,
        "group_order": estimate_order(plan),
    }
    if plan.problems:
        return report
    model = GroupModel(plan)
    digraph = model.compute_frobenius_digraph()
    o = plan.orientation
    # model position -> plan position; a valid plan's primes are distinct
    position = {plan.prime_of[v]: i for i, v in enumerate(o.vertices)}
    to_plan = [position[p] for p in model.primes()]

    def in_plan_order(rows) -> list[int]:
        moved = [0] * len(rows)
        for i, row in enumerate(rows):
            moved[to_plan[i]] = sum(1 << to_plan[j] for j in _bits(row))
        return moved

    report["plan_valid"] = True
    report["digraph_matches"] = in_plan_order(digraph.out_rows) == list(o.out_rows)
    report["prime_graph_matches"] = in_plan_order(digraph.underlying.rows) == list(o.underlying.rows)
    return report

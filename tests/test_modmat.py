"""Monomial matrices against plain dense arithmetic."""

from __future__ import annotations

import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_apply,
    dense_identity,
    dense_mul,
    dense_nullity,
    dense_pow,
    dense_rho,
    dense_transfer,
    sweep_plans,
)
from solvgraph import GroupModel, modmat


def test_rows_round_trip_and_non_monomial_rejected():
    rows = ((0, 3, 0), (0, 0, 1), (5, 0, 0))
    a = modmat.from_rows(rows, 7)
    assert a == ((2, 0, 1), (5, 3, 1))
    assert modmat.to_rows(a) == rows
    assert modmat.from_rows([[8, 0], [0, -1]], 7) == ((0, 1), (1, 6))
    for bad in ([[1, 1], [0, 1]], [[1, 0], [0, 7]], [[0, 1]], [[1, 0], [0]]):
        with pytest.raises(ValueError):
            modmat.from_rows(bad, 7)


def test_monomial_kernels_match_dense_on_sweep_modules():
    """Every distinct module of dimension <= 35 in the sweep: for the
    action of the product of its actors (and of a random K element on
    small modules), powers, the fixed-vector test and the zero test of the
    transfer sum agree with dense arithmetic.  At n = k_order(k), the
    fixed-component test says whether the transfer sum moves a random
    vector, and a vector in the image of the action minus 1, off zero."""
    rng = random.Random(35)
    seen = set()
    checked = 0
    for _, plan in sweep_plans(6):
        model = GroupModel(plan)
        for j, f in enumerate(model.modules):
            key = (f.prime, tuple(sorted(f.action.items())))
            if not f.action or f.dim > 35 or key in seen:
                continue
            seen.add(key)
            small = f.dim <= 6
            elements = [tuple(int(v in f.action) for v, _, _ in model.k_factors)]
            if small:
                elements.append(tuple(rng.randrange(p) for _, p, _ in model.k_factors))
            for k in elements:
                mono = model.rho(j, k)
                dense = dense_rho(model, j, k)
                assert modmat.to_rows(mono) == tuple(map(tuple, dense))
                for e in (0, 1, 2, f.dim + 1):
                    assert modmat.to_rows(modmat.power(mono, e, f.prime)) == tuple(
                        map(tuple, dense_pow(dense, e, f.prime))
                    )
                shifted = [
                    [x - y for x, y in zip(row, one)] for row, one in zip(dense, dense_identity(f.dim))
                ]
                assert modmat.has_fixed_vector(mono, f.prime) == (dense_nullity(shifted, f.prime) > 0)
                n_k = model.k_order(k)
                for n in (n_k, n_k + 1, n_k * f.prime) if small else (n_k,):
                    transfer = dense_transfer(dense, n, f.prime)
                    zero = not any(any(row) for row in transfer)
                    assert modmat.transfer_is_zero(mono, n, f.prime) == zero
                    if n == n_k:
                        v = tuple(rng.randrange(f.prime) for _ in range(f.dim))
                        moved = modmat.apply(mono, v, f.prime)
                        for w in (v, tuple((x - y) % f.prime for x, y in zip(v, moved))):
                            fixed = modmat.has_fixed_component(mono, w, f.prime)
                            assert fixed == any(dense_apply(transfer, w, f.prime))
                checked += 1
    assert checked > 500


@st.composite
def monomials(draw, max_dim: int = 12):
    """(a, b, r): two monomial matrices of one dimension over GF(r), with
    arbitrary cycle structure and nonzero scales."""
    r = draw(st.sampled_from((2, 3, 5, 7, 13)))
    dim = draw(st.integers(min_value=1, max_value=max_dim))

    def one():
        perm = tuple(draw(st.permutations(range(dim))))
        scale = tuple(draw(st.lists(st.integers(1, r - 1), min_size=dim, max_size=dim)))
        return perm, scale

    return one(), one(), r


def _cycle_lengths(perm) -> set[int]:
    lengths, seen = set(), set()
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length:
            lengths.add(length)
    return lengths


@given(monomials(), st.lists(st.integers(1, 40), min_size=1, max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_monomial_kernels_match_dense_on_general_monomials(drawn, exponents, data):
    """Any monomial matrix, as plan JSON may carry: products, powers below,
    at, between and above multiples of each cycle length, the closed-form
    identity test, fixed vectors of several powers and the zero test of
    transfer sums agree with dense arithmetic.  Where no cycle length is
    a multiple of r, the period of a is prime to r, and the fixed-component
    test says whether the transfer sum over a period moves a vector, and
    a vector in the image of a - 1."""
    a, b, r = drawn
    dim = len(a[0])
    dense = [list(row) for row in modmat.to_rows(a)]
    assert modmat.to_rows(modmat.multiply(a, b, r)) == tuple(
        map(tuple, dense_mul(dense, modmat.to_rows(b), r))
    )
    lengths = _cycle_lengths(a[0])
    period = lcm(*lengths) * (r - 1)  # a**period is the identity
    powers = {0, 1, period, period + 1, *exponents}
    for length in lengths:
        powers.update((length - 1, length, 2 * length, 2 * length + 1))
    identity = dense_identity(dim)
    for e in sorted(powers):
        raised = dense_pow(dense, e, r)
        assert modmat.to_rows(modmat.power(a, e, r)) == tuple(map(tuple, raised))
        assert modmat.power_is_identity(a, e, r) == (raised == identity)
    assert modmat.has_fixed_vector(a, r, exponents) == any(
        dense_nullity(
            [[x - y for x, y in zip(row, one)] for row, one in zip(dense_pow(dense, e, r), identity)], r
        )
        > 0
        for e in exponents
    )
    for n in sorted(powers):
        transfer = dense_transfer(dense, n, r)
        assert modmat.transfer_is_zero(a, n, r) == (not any(any(row) for row in transfer))
    if all(length % r for length in lengths):
        v = tuple(data.draw(st.lists(st.integers(0, r - 1), min_size=dim, max_size=dim)))
        image = tuple((x - y) % r for x, y in zip(v, modmat.apply(a, v, r)))
        transfer = dense_transfer(dense, period, r)
        for w in (v, image):
            assert modmat.has_fixed_component(a, w, r) == any(dense_apply(transfer, w, r))

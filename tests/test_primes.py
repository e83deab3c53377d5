"""Primality and prime searches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvgraph.primes import is_prime


def test_strong_pseudoprime_to_small_bases_is_composite():
    # 151 * 751 * 28351: the least strong pseudoprime to the bases 2, 3, 5, 7
    assert not is_prime(3_215_031_751)
    # the least strong pseudoprime to every prime base up to 31
    assert not is_prime(3_825_123_056_546_413_051)
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)  # the largest prime below 2**64


def test_is_prime_refuses_inputs_from_2_to_the_64():
    with pytest.raises(ValueError):
        is_prime(2**64)
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)


def test_is_prime_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")  # optional test oracle

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.integers(-10, 10**6), st.integers(0, 2**64 - 1)))
    def agree(n):
        assert is_prime(n) == sympy.isprime(n)

    agree()

"""Primality and prime searches."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvgraph.primes import decimal, is_prime


def digits_by_nines(n: int) -> str:
    """Decimal digits of n >= 0 peeled off nine at a time: str() of each
    piece is far below the interpreter's digit limit."""
    pieces = []
    while n >= 10**9:
        n, low = divmod(n, 10**9)
        pieces.append(f"{low:09d}")
    return str(n) + "".join(reversed(pieces))


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


def test_decimal_writes_every_digit_past_the_interpreter_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rng = random.Random(27)
    cases = [0, 1, 9, 10, 10**599, 10**600 - 1, 10**600, 10**4300 - 1, 10**4300, 7**6000]
    cases += [rng.randrange(10**(d - 1), 10**d) for d in (599, 600, 601, 1200, 1201, 4301, 4797, 9601)]
    for n in cases:
        assert decimal(n) == digits_by_nines(n)
        assert decimal(-n) == ("-" if n else "") + digits_by_nines(n)
    # the process-wide limit is left as it was (Python 3.11 and 3.10.7 on)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


"""Prime searches, multiplicative-order utilities and exact decimals.

Everything here works with exact integer arithmetic.  Primality is a
Miller-Rabin test with the twelve prime bases 2..37, which is
deterministic for every n < 2**64; larger inputs are refused.
"""

from __future__ import annotations

from .errors import LimitExceeded

# The first twelve primes: as Miller-Rabin bases they decide every n < 2**64
# (the least strong pseudoprime to all of them is about 3.3 * 10**24).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMALITY_LIMIT = 2**64
# str() converts this many digits under any setting of the interpreter's
# digit limit (sys.set_int_max_str_digits accepts no value below 640)
_DECIMAL_PIECE = 600


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 2**64; ValueError above that."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"primality of {n} is not decided above 2**64")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime(modulus: int, used: set[int], cap: int) -> int:
    """Smallest prime p <= cap with p = 1 (mod modulus) and p not in used.

    ``modulus=1`` degenerates to "smallest unused prime".  Raises
    LimitExceeded when the search passes ``cap``, which signals a
    pathological congruence demand rather than a routine failure.
    """
    candidate = modulus + 1
    while candidate <= cap:
        if candidate not in used and is_prime(candidate):
            return candidate
        candidate += modulus
    what = "prime" if modulus == 1 else f"prime p = 1 (mod {modulus})"
    raise LimitExceeded(f"no unused {what} below {cap}")


def elements_of_order(order: int, order_factors: tuple[int, ...], modulus: int):
    """Yield the elements of exact multiplicative order ``order``, ascending."""
    if (modulus - 1) % order != 0:
        return
    for a in range(2, modulus):
        if pow(a, order, modulus) != 1:
            continue
        if all(pow(a, order // f, modulus) != 1 for f in order_factors):
            yield a


def decimal(n: int) -> str:
    """The exact decimal digits of n, however many.

    From Python 3.11 (and 3.10.7) str() refuses an int of more than 4300
    digits by default.  This peels off pieces that str() converts under
    any limit, and changes no process-wide setting.
    """
    if n < 0:
        return "-" + decimal(-n)
    pieces = []
    while n >= 10**_DECIMAL_PIECE:
        n, low = divmod(n, 10**_DECIMAL_PIECE)
        pieces.append(str(low).zfill(_DECIMAL_PIECE))
    return str(n) + "".join(reversed(pieces))

"""Monomial matrices over prime fields, in plain Python.

Every module action the synthesizer builds is monomial: one nonzero
entry per row and per column.  Such a matrix is held as a pair
``(perm, scale)`` with ``a[perm[j]][j] = scale[j]``: it maps the basis
vector e_j to ``scale[j] * e_perm[j]``.  Scales are reduced mod the field
size r and nonzero.

Powers, fixed vectors and transfer sums are answered one permutation
cycle at a time in O(dim) field operations.  On a cycle of length L
whose scales multiply to c, the L-th power of the matrix is c times the
identity; the closed forms below rest on that.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

Monomial = tuple[tuple[int, ...], tuple[int, ...]]


def from_rows(rows, r: int) -> Monomial:
    """(perm, scale) of a row-major matrix; ValueError unless it is square
    and monomial mod r."""
    dim = len(rows)
    perm = [-1] * dim
    scale = [0] * dim
    for i, row in enumerate(rows):
        if len(row) != dim:
            raise ValueError("matrix must be square")
        for j, x in enumerate(row):
            if x % r:
                if perm[j] != -1:
                    raise ValueError(f"matrix is not monomial: column {j} has two nonzero entries")
                perm[j] = i
                scale[j] = x % r
    if -1 in perm or len(set(perm)) != dim:
        raise ValueError("matrix is not monomial: some row or column has no single nonzero entry")
    return tuple(perm), tuple(scale)


def to_rows(a: Monomial) -> tuple[tuple[int, ...], ...]:
    perm, scale = a
    rows = [[0] * len(perm) for _ in perm]
    for j, i in enumerate(perm):
        rows[i][j] = scale[j]
    return tuple(map(tuple, rows))


def identity(dim: int) -> Monomial:
    return tuple(range(dim)), (1,) * dim


def multiply(a: Monomial, b: Monomial, r: int) -> Monomial:
    """The product a @ b."""
    pa, sa = a
    pb, sb = b
    return tuple([pa[i] for i in pb]), tuple([sb[j] * sa[i] % r for j, i in enumerate(pb)])


def commute(a: Monomial, b: Monomial, r: int) -> bool:
    return multiply(a, b, r) == multiply(b, a, r)


def apply(a: Monomial, v, r: int) -> tuple[int, ...]:
    """The vector a @ v."""
    perm, scale = a
    out = [0] * len(perm)
    for j, i in enumerate(perm):
        out[i] = scale[j] * v[j] % r
    return tuple(out)


@lru_cache(maxsize=256)
def _cycles(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The cycles of a permutation, each listed along j -> perm[j] from its
    least index.  Memoized: the module actions repeat a few permutations."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        j = perm[start]
        while not seen[j]:
            cycle.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def _product(scale, cycle, r: int) -> int:
    """The product c of the scales along a cycle."""
    c = 1
    for j in cycle:
        c = c * scale[j] % r
    return c


def _partial_products(scale, cycle, r: int) -> tuple[list[int], list[int]]:
    """Prefix products P and suffix products S of the scales along a cycle:
    P[i] of the first i, S[i] of those from position i on, so that
    P[i] S[i] is their full product c."""
    prefix = [1]
    for j in cycle:
        prefix.append(prefix[-1] * scale[j] % r)
    suffix = [1] * len(prefix)
    for i in range(len(cycle) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * scale[cycle[i]] % r
    return prefix, suffix


def _geometric(c: int, q: int, r: int) -> int:
    """1 + c + ... + c**(q-1) mod r."""
    if c == 1:
        return q % r
    return (pow(c, q, r) - 1) * pow(c - 1, -1, r) % r


def power(a: Monomial, e: int, r: int) -> Monomial:
    """a**e for e >= 0: with e = qL + s on a cycle of length L and scale
    product c, each entry moves s steps on, scaled by c**q times the s
    scales it passes.

    With prefix products P and suffix products S along the cycle
    (P[i] S[i] = c), the s scales from position i multiply to
    S[i] P[i+s] / c when the window ends by position L, and to
    S[i] P[i+s-L] when it wraps; so one inverse per cycle suffices.
    """
    perm, scale = a
    out_perm = [0] * len(perm)
    out_scale = [0] * len(perm)
    for cycle in _cycles(perm):
        length = len(cycle)
        q, s = divmod(e, length)
        if not s:  # c**q times the identity on this cycle; every fixed point
            turns = pow(_product(scale, cycle, r), q, r)
            for j in cycle:
                out_perm[j] = j
                out_scale[j] = turns
            continue
        prefix, suffix = _partial_products(scale, cycle, r)
        c = prefix[length]
        turns = pow(c, q, r)
        unwrapped = turns * pow(c, -1, r) % r
        for i, j in enumerate(cycle):
            end = i + s
            if end < length:
                out_perm[j] = cycle[end]
                out_scale[j] = unwrapped * suffix[i] * prefix[end] % r
            else:
                out_perm[j] = cycle[end - length]
                out_scale[j] = turns * suffix[i] * prefix[end - length] % r
    return tuple(out_perm), tuple(out_scale)


def power_is_identity(a: Monomial, e: int, r: int) -> bool:
    """True iff a**e is the identity: every cycle length L divides e and
    the cycle's scale product c has c**(e/L) = 1."""
    perm, scale = a
    for cycle in _cycles(perm):
        q, s = divmod(e, len(cycle))
        if s or pow(_product(scale, cycle, r), q, r) != 1:
            return False
    return True


def has_fixed_vector(a: Monomial, r: int, exponents=(1,)) -> bool:
    """True iff a**e fixes a nonzero vector for some e in ``exponents``.

    A cycle of a of length L and scale product c splits into gcd(e, L)
    cycles of a**e, each with scale product c**(e / gcd(e, L)); a fixed
    vector exists exactly when one of those products is 1.
    """
    perm, scale = a
    kinds = {(len(cycle), _product(scale, cycle, r)) for cycle in _cycles(perm)}
    return any(pow(c, e // gcd(e, length), r) == 1 for length, c in kinds for e in exponents)


def transfer_is_zero(a: Monomial, n: int, r: int) -> bool:
    """True iff I + a + ... + a**(n-1) is the zero matrix.

    On a cycle of length L with n = qL + s, the sum has coefficient
    1 + c + ... + c**q at the first s powers of a and 1 + ... + c**(q-1)
    at the others.  These differ by c**q != 0, so the block vanishes
    exactly when s = 0 and the second sum is 0 mod r.
    """
    perm, scale = a
    for cycle in _cycles(perm):
        q, s = divmod(n, len(cycle))
        if s or _geometric(_product(scale, cycle, r), q, r):
            return False
    return True


def transfer_apply(a: Monomial, n: int, v, r: int) -> tuple[int, ...]:
    """(I + a + ... + a**(n-1)) @ v.

    On a cycle of length L, n = qL + s gives the sum
    (1 + ... + c**(q-1)) W_L + c**q W_s, where W_w is the sum of the first
    w powers.  Component m of W_w v gathers v from the w cycle positions
    up to m, each carried forward to m.  Dividing position i by the prefix
    product P[i] makes each gather a window sum of one list, in which a
    window that wraps past position 0 picks up a factor c.  The suffix
    products S give 1 / P[i] = S[i] / c, one inverse per cycle.
    """
    perm, scale = a
    out = [0] * len(perm)
    for cycle in _cycles(perm):
        length = len(cycle)
        q, s = divmod(n, length)
        prefix, suffix = _partial_products(scale, cycle, r)
        c = prefix[length]
        inverse = pow(c, -1, r)
        carried = [v[j] * suffix[i] * inverse % r for i, j in enumerate(cycle)]
        sums = [0]  # running totals of (c * carried) followed by carried
        for x in [c * x for x in carried] + carried:
            sums.append((sums[-1] + x) % r)
        full = _geometric(c, q, r)
        turns = pow(c, q, r)
        for m, j in enumerate(cycle):
            end = sums[length + m + 1]
            total = full * (end - sums[m + 1]) + turns * (end - sums[length + m - s + 1])
            out[j] = prefix[m] * total % r
    return tuple(out)

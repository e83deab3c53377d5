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
    return tuple(pa[i] for i in pb), tuple(sb[j] * sa[i] % r for j, i in enumerate(pb))


def commute(a: Monomial, b: Monomial, r: int) -> bool:
    return multiply(a, b, r) == multiply(b, a, r)


def apply(a: Monomial, v, r: int) -> tuple[int, ...]:
    """The vector a @ v."""
    perm, scale = a
    out = [0] * len(perm)
    for j, i in enumerate(perm):
        out[i] = scale[j] * v[j] % r
    return tuple(out)


def _cycles(a: Monomial, r: int, turns: int = 1):
    """Yield (cycle, prefix) per cycle of the permutation: the cycle listed
    along j -> perm[j], and prefix[t] the product of the scales met in the
    first t steps along it, for t up to ``turns`` times its length."""
    perm, scale = a
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        while not seen[perm[cycle[-1]]]:
            cycle.append(perm[cycle[-1]])
            seen[cycle[-1]] = True
        prefix = [1]
        for t in range(len(cycle) * turns):
            prefix.append(prefix[-1] * scale[cycle[t % len(cycle)]] % r)
        yield cycle, prefix


def _geometric(c: int, q: int, r: int) -> int:
    """1 + c + ... + c**(q-1) mod r."""
    if c == 1:
        return q % r
    return (pow(c, q, r) - 1) * pow(c - 1, -1, r) % r


def power(a: Monomial, e: int, r: int) -> Monomial:
    """a**e for e >= 0: with e = qL + s on a cycle of length L and scale
    product c, each entry moves s steps on, scaled by c**q times the s
    scales it passes."""
    perm = [0] * len(a[0])
    scale = [0] * len(a[0])
    for cycle, prefix in _cycles(a, r, 2):
        length = len(cycle)
        q, s = divmod(e, length)
        turns = pow(prefix[length], q, r)
        for i, j in enumerate(cycle):
            perm[j] = cycle[(i + s) % length]
            scale[j] = turns * prefix[i + s] * pow(prefix[i], -1, r) % r if s else turns
    return tuple(perm), tuple(scale)


def has_fixed_vector(a: Monomial, r: int, exponents=(1,)) -> bool:
    """True iff a**e fixes a nonzero vector for some e in ``exponents``.

    A cycle of a of length L and scale product c splits into gcd(e, L)
    cycles of a**e, each with scale product c**(e / gcd(e, L)); a fixed
    vector exists exactly when one of those products is 1.
    """
    kinds = {(len(cycle), prefix[-1]) for cycle, prefix in _cycles(a, r)}
    return any(pow(c, e // gcd(e, length), r) == 1 for length, c in kinds for e in exponents)


def transfer_is_zero(a: Monomial, n: int, r: int) -> bool:
    """True iff I + a + ... + a**(n-1) is the zero matrix.

    On a cycle of length L with n = qL + s, the sum has coefficient
    1 + c + ... + c**q at the first s powers of a and 1 + ... + c**(q-1)
    at the others.  These differ by c**q != 0, so the block vanishes
    exactly when s = 0 and the second sum is 0 mod r.
    """
    for cycle, prefix in _cycles(a, r):
        q, s = divmod(n, len(cycle))
        if s or _geometric(prefix[-1], q, r):
            return False
    return True


def transfer_apply(a: Monomial, n: int, v, r: int) -> tuple[int, ...]:
    """(I + a + ... + a**(n-1)) @ v.

    On a cycle of length L, n = qL + s gives the sum
    (1 + ... + c**(q-1)) W_L + c**q W_s, where W_w is the sum of the first
    w powers.  Component m of W_w v gathers v from the w cycle positions
    up to m, each carried forward to m.  Dividing position i by the prefix
    product P[i] makes each gather a window sum of one list, in which a
    window that wraps past position 0 picks up a factor c.
    """
    out = [0] * len(a[0])
    for cycle, prefix in _cycles(a, r):
        length = len(cycle)
        q, s = divmod(n, length)
        c = prefix[length]
        carried = [v[j] * pow(prefix[i], -1, r) % r for i, j in enumerate(cycle)]
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

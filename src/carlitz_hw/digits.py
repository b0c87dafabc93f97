"""Base-q digit combinatorics of exponents.

The digit sum ell(n) of n = a_0 + a_1 q + ... controls everything downstream:
the expected degree of the generating polynomial attached to n (target_degree)
and the digit-stripping recursion rho whose iterated partial sums bound the
degrees of the power sums (checked by the gekeler verify suite); rho reads
n as rho_exponents, its powers of q.  The degree engine reads its targets
once per orbit of n -> q*n, from powersums.LogTable.orbits; target_degree
is their per-exponent oracle.  deg 0 = -inf is modelled by the float
NEG_INF, which already satisfies NEG_INF + x = NEG_INF and NEG_INF < x for
every int.

n is in the zero class when (q - 1) | n; since ell(n) = n mod (q - 1), this
is equivalent to (q - 1) | ell(n).  For q = 2 every exponent is zero-class.
"""

from __future__ import annotations

from .errors import OutOfRangeError
from .fieldcore import FieldCtx
from .polyring import NEG_INF


def base_q_digits(n: int, q: int) -> tuple[int, ...]:
    """Digits of n >= 0 in base q, least significant first."""
    digits = []
    while n > 0:
        n, r = divmod(n, q)
        digits.append(r)
    return tuple(digits)


def ell(n: int, q: int) -> int:
    """The base-q digit sum l(n)."""
    return sum(base_q_digits(n, q))


def target_degree(n: int, ctx: FieldCtx) -> int:
    """The degree the reduced generating polynomial attains iff the field
    is ordinary at n: floor(l(n)/(q-1)), minus one in the zero class."""
    q = ctx.q
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    t = ell(n, q) // (q - 1)
    return t - 1 if n % (q - 1) == 0 else t


def rho_exponents(n: int, q: int) -> tuple[int, ...]:
    """The ascending exponent list e_1 <= e_2 <= ... with n = sum q^(e_i),
    each digit position repeated with its multiplicity."""
    out = []
    for j, a in enumerate(base_q_digits(n, q)):
        out.extend([j] * a)
    return tuple(out)


def rho(n: int, q: int):
    """One digit-stripping step: n minus its q - 1 smallest base-q power
    terms (rho_exponents), or -inf when it has fewer than q - 1."""
    if n == NEG_INF:
        return NEG_INF
    exps = rho_exponents(n, q)
    if len(exps) < q - 1:
        return NEG_INF
    return n - sum(q**e for e in exps[:q - 1])


def gekeler_degree_bound(i: int, n: int, ctx: FieldCtx):
    """rho(n) + rho^(2)(n) + ... + rho^(i)(n); the empty sum (i = 0) is 0.

    -inf as soon as any summand is.  This bounds the degree of the i-th
    power sum at n, with equality over prime fields.
    """
    if i < 0:
        raise OutOfRangeError(f"i must be >= 0, got {i}")
    q = ctx.q
    total = 0
    cur = n
    for _ in range(i):
        cur = rho(cur, q)
        if cur == NEG_INF:
            return NEG_INF
        total += cur
    return total

"""Power sums over monic polynomials: s_i(n) = sum of a^n over monic a of
degree i, exact in F_q[T] and reduced modulo an irreducible m.

The exact sum is computed by brute-force enumeration and repeated squaring;
it is deliberately simple because it serves as the oracle for everything
else in the package.  Exact degrees grow like i*n, so calls are guarded by
a cost estimate q^i * ceil(log2 n) * (i*n + 1) against a configurable
budget (CostCeilingError beyond it).

The reduced sum s_mod enumerates the same monic polynomials and accumulates
residue powers by square-and-multiply (residue_pow), never leaving degree
< d.  It serves b_poly, z_bar, the verify suites and short degree streams,
and it is the oracle for LogTable: a discrete-log table of A/mA = F_{q^d}
with which s_i(n) mod m costs one index computation per monic a,
a^n = g^(log a * n mod (q^d - 1)), and no polynomial multiplication.
invariants.degree_stream switches to the table once it has spent as many
products on residue_pow as the table costs to build.  residue_cost bounds
the memory of one degree stream and is checked against the same budget as
exact mode.
"""

from __future__ import annotations

from functools import lru_cache

from .digits import base_q_digits
from .errors import (
    ClosedFormWindowError,
    CostCeilingError,
    InternalError,
    OutOfRangeError,
    PrimeFieldOnlyError,
)
from .fieldcore import FieldCtx
from .polyring import FqPoly, Modulus, _prime_divisors, monic_enumerate, residue_pow

DEFAULT_COST_CEILING = 10**9


def exact_cost(i: int, n: int, ctx: FieldCtx) -> int:
    """Cost estimate for s_exact, in coefficient operations."""
    return ctx.q**i * max(max(n - 1, 0).bit_length(), 1) * (i * n + 1)


def _check_exact_args(i, n):
    if i < 0:
        raise OutOfRangeError(f"i must be >= 0, got {i}")
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")


def residue_cost(m: Modulus) -> int:
    """Cost estimate for a degree stream mod m, in table entries: the orbit
    memo and the log table hold q^d - 1 entries each, a table entry d*e F_p
    coordinates."""
    return m.group_order * (m.d * m.ctx.e + 1)


def check_budget(what: str, cost: int, budget: int | None) -> None:
    """CostCeilingError when cost exceeds budget (DEFAULT_COST_CEILING if None)."""
    limit = DEFAULT_COST_CEILING if budget is None else budget
    if cost > limit:
        raise CostCeilingError(f"{what} estimated cost {cost} exceeds budget {limit}")


def s_exact(i: int, n: int, ctx: FieldCtx, budget: int | None = None) -> FqPoly:
    """The exact power sum in F_q[T], by brute force.  This is the oracle."""
    _check_exact_args(i, n)
    check_budget(f"s_exact(i={i}, n={n})", exact_cost(i, n, ctx), budget)
    return _s_exact_cached(i, n, ctx)


@lru_cache(maxsize=4096)
def _s_exact_cached(i, n, ctx):
    total = FqPoly.zero(ctx)
    for a in monic_enumerate(ctx, i):
        total = total + a**n
    return total


def s_mod(i: int, n: int, m: Modulus) -> FqPoly:
    """The power sum reduced mod m; equals s_exact reduced, computed directly."""
    if not 0 <= i <= m.d - 1:
        raise OutOfRangeError(f"i={i} outside [0, d-1] = [0, {m.d - 1}]")
    if not 1 <= n <= m.group_order - 1:
        raise OutOfRangeError(
            f"n={n} outside [1, q^d-2] = [1, {m.group_order - 1}]")
    total = FqPoly.zero(m.ctx)
    for a in monic_enumerate(m.ctx, i):
        power = residue_pow(a, n, m)
        # monic a of degree i < d is a unit mod m, so a^n cannot vanish
        if power.is_zero():
            raise InternalError(
                f"unit power vanished mod {m!r}: a^{n} = 0 for monic degree {i}")
        total = total + power
    return total


class LogTable:
    """Discrete-log table of the residue field A/mA = F_{q^d}, N = q^d - 1.

    g is the least primitive residue in code order, exp[k] = g^k for
    0 <= k < N, and logs[i] lists log a for the monic a of degree i < d in
    enumeration order.  A residue is packed into one int: the F_p coordinate
    t of its T^j coefficient sits in bit field j*e + t, and every field is
    wide enough for a sum of q^d residues, so that s_i(n) mod m, the sum of
    exp[log a * n mod N] over the monic a of degree i, takes integer
    additions only.  Multiplication by g is F_p-linear, so each exp entry is
    the previous one's coordinates times the packed images of the basis.
    """

    __slots__ = ("p", "order", "shifts", "mask", "exp", "logs")

    def __init__(self, m: Modulus):
        ctx, d, order = m.ctx, m.d, m.group_order
        p, e, q = ctx.p, ctx.e, ctx.q
        width = (q**d * (p - 1)).bit_length()
        self.p, self.order = p, order
        self.shifts = shifts = range(0, width * d * e, width)
        self.mask = mask = (1 << width) - 1

        def pack(coeffs):  # F_q codes of a residue, T^0 first
            return sum((c // p**t % p) << shifts[j * e + t]
                       for j, c in enumerate(coeffs) for t in range(e))

        g = _least_primitive(m).coeffs
        # g times the F_p basis residues x^t T^j, in field order j*e + t
        images = [pack(m._mulmod([0] * j + [p**t], g))
                  for j in range(d) for t in range(e)]
        exp, log = [], {}
        cur = 1
        for k in range(order):
            log[cur] = k
            exp.append(cur)
            raw = sum([(cur >> s & mask) * img for s, img in zip(shifts, images)])
            cur = sum([(raw >> s & mask) % p << s for s in shifts])
        if len(log) != order or exp[0] != 1:
            raise InternalError(f"discrete-log table of {m!r} is not a bijection")
        self.exp = exp
        self.logs = tuple([log[pack(a.coeffs)] for a in monic_enumerate(ctx, i)]
                          for i in range(d))

    def power_sum(self, i: int, n: int) -> int:
        """s_i(n) mod m, packed, its coordinates not yet reduced mod p."""
        exp, order = self.exp, self.order
        return sum([exp[la * n % order] for la in self.logs[i]])

    def coordinates(self, packed: int) -> list[int]:
        """The d*e F_p coordinates of a packed sum, reduced mod p."""
        p, mask = self.p, self.mask
        return [(packed >> s & mask) % p for s in self.shifts]


def _least_primitive(m: Modulus) -> FqPoly:
    ctx, d, order = m.ctx, m.d, m.group_order
    q = ctx.q
    cofactors = [order // r for r in _prime_divisors(order)]
    one = FqPoly.one(ctx)
    # a constant has order dividing q - 1, so it is primitive only when d = 1
    for code in range(1 if d == 1 else q, q**d):
        g = FqPoly(ctx, [code // q**j % q for j in range(d)], check=False)
        if all(residue_pow(g, k, m) != one for k in cofactors):
            return g
    raise InternalError(f"no primitive residue mod {m!r}")


def s1_closed_form(n: int, ctx: FieldCtx) -> FqPoly:
    """Degree-one power sum from the binomial closed form, prime fields only.

    For n = a + b*p with 0 <= a, b <= p-1 and p-1 <= a+b < 2(p-1):
        s_1(n) = -C(b, p-1-a) * (T^p - T)^(a+b-(p-1)).
    The window is enforced because the formula demonstrably fails at
    a+b = 2(p-1); the brute-force oracle always wins.
    """
    if ctx.e != 1:
        raise PrimeFieldOnlyError("closed form requires q = p")
    p = ctx.p
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    if n >= p * p:
        raise ClosedFormWindowError(n, f"n has more than two base-{p} digits")
    a, b = n % p, n // p
    if not p - 1 <= a + b < 2 * (p - 1):
        raise ClosedFormWindowError(
            n, f"digit sum {a + b} outside [{p - 1}, {2 * (p - 1)})")
    binom = _binomial_mod_p(b, p - 1 - a, p)
    coeff = (-binom) % p
    tp_minus_t = FqPoly(ctx, [0, (-1) % p] + [0] * (p - 2) + [1], check=False)
    return (tp_minus_t ** (a + b - (p - 1))).scale(coeff)


def _binomial_mod_p(top, k, p):
    if k < 0 or k > top:
        return 0
    num = den = 1
    for j in range(k):
        num = num * (top - j) % p
        den = den * (j + 1) % p
    return num * pow(den, -1, p) % p


def f_poly(n: int, ctx: FieldCtx, budget: int | None = None) -> FqPoly:
    """1 + s_1(n), the exact polynomial whose residue decides the zero-class
    degree drop; carries the shift/scale/reversal symmetries for zero-class n."""
    return FqPoly.one(ctx) + s_exact(1, n, ctx, budget=budget)


def frobenius_twist_exponent(n: int, p: int, group_order: int) -> int:
    """p*n reduced into [1, group_order - 1]; the power sums at the twisted
    exponent are the p-th powers of those at n."""
    return p * n % group_order


def digit_sum_cap(n: int, ctx: FieldCtx) -> int:
    """floor(l(n)/(q-1)): power sums s_i(n) vanish for all i beyond it."""
    return sum(base_q_digits(n, ctx.q)) // (ctx.q - 1)

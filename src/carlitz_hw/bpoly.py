"""Generating polynomials of power sums in an auxiliary variable u.

C_n(u) = sum_i s_i(n) u^i is a polynomial because s_i(n) = 0 once i exceeds
floor(l(n)/(q-1)).  B_n(u) is C_n(u) for exponents outside the zero class;
for zero-class n the coefficients switch to the partial sums of the s_i
(equivalently B_n = C_n/(1-u), exact because C_n(1) = 0 there), truncated at
u^(d-2).  B_n does not depend on the ambient degree d, so the exact-mode
functions take d only to validate ranges.

A UPoly stores its FqPoly coefficients ascending in u, either exact in
F_q[T] or reduced mod an irreducible m (every coefficient of degree < d);
u_degree of the zero polynomial is -inf.

This module builds whole polynomials bottom-up, s_0 first.  It serves the
bpoly command, z_bar and the verify suites, and it is the oracle of the
degree engine, which reads each degree top-down from the power sums alone
(invariants._reduced_degree) and never builds B_n.
"""

from __future__ import annotations

from .errors import (
    DivisionRemainderError,
    DomainError,
    InternalError,
    OutOfRangeError,
)
from .fieldcore import FieldCtx
from .polyring import NEG_INF, FqPoly, Modulus, format_poly
from .powersums import digit_sum_cap, s_exact, s_mod

EXACT = "exact"
RESIDUE = "residue"


class UPoly:
    """Polynomial in u with FqPoly coefficients; immutable and normalized."""

    __slots__ = ("coeffs", "mode", "modulus")

    def __init__(self, coeffs, mode=EXACT, modulus: Modulus | None = None):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        if mode not in (EXACT, RESIDUE):
            raise DomainError(f"unknown UPoly mode {mode!r}")
        if (modulus is not None) != (mode == RESIDUE):
            raise DomainError("a modulus is required exactly in residue mode")
        if modulus is not None:
            for c in cs:
                if len(c.coeffs) > modulus.d:
                    raise DomainError("residue coefficient of degree >= d")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    @property
    def u_degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i: int) -> FqPoly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        if not self.coeffs:
            raise DomainError("zero UPoly has no coefficient field context")
        return FqPoly.zero(self.coeffs[0].ctx)

    def eval_at_one(self) -> FqPoly:
        """Sum of the coefficients, i.e. the value at u = 1."""
        if not self.coeffs:
            raise DomainError("cannot evaluate the zero UPoly without a context")
        total = FqPoly.zero(self.coeffs[0].ctx)
        for c in self.coeffs:
            total = total + c
        return total

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        if self.mode != other.mode or self.modulus != other.modulus:
            raise DomainError("UPoly operands have different coefficient domains")
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly((), self.mode, self.modulus)
        ctx = a[0].ctx
        out = [FqPoly.zero(ctx) for _ in range(len(a) + len(b) - 1)]
        m = self.modulus
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                if y.is_zero():
                    continue
                prod = x * y
                if m is not None:
                    prod = m.reduce(prod)
                out[i + j] = out[i + j] + prod
        return UPoly(out, self.mode, self.modulus)

    def __eq__(self, other):
        return (isinstance(other, UPoly) and self.coeffs == other.coeffs
                and self.mode == other.mode and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.coeffs, self.mode, self.modulus))

    def __repr__(self):
        inner = "; ".join(format_poly(c) for c in self.coeffs) or "0"
        return f"UPoly[{self.mode}]({inner})"


def u_degree(poly: UPoly):
    """Index of the last nonzero coefficient; -inf for the zero polynomial."""
    return poly.u_degree


def one_upoly(ctx: FieldCtx, mode=EXACT, m: Modulus | None = None) -> UPoly:
    return UPoly((FqPoly.one(ctx),), mode, m)


def divide_by_one_minus_u(c_poly: UPoly) -> tuple[UPoly, FqPoly]:
    """Synthetic division C(u) = (1 - u) Q(u) + R; returns (Q, R)."""
    cs = c_poly.coeffs
    if not cs:
        raise DomainError("cannot divide the zero UPoly (no context)")
    ctx = cs[0].ctx
    # with C = sum c_i u^i: q_j = -(c_{j+1} + c_{j+2} + ... + c_deg),
    # accumulated from the top; R = C(1)
    out = []
    acc = FqPoly.zero(ctx)
    for c in reversed(cs):
        acc = acc + c
        out.append(-acc)
    remainder = -out[-1]
    quotient = list(reversed(out[:-1]))
    return UPoly(quotient, c_poly.mode, c_poly.modulus), remainder


def _validated_range(n, ctx, d):
    if d is not None:
        top = ctx.q**d - 2
        if not 1 <= n <= top:
            raise OutOfRangeError(f"n={n} outside [1, q^d-2] = [1, {top}]")
    elif n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")


def c_poly(n: int, ctx: FieldCtx, m: Modulus | None = None,
           d: int | None = None, budget: int | None = None) -> UPoly:
    """C_n(u) with coefficients s_i(n), i = 0..floor(l(n)/(q-1)).

    Residue mode when m is given (coefficients reduced mod m), exact
    otherwise.  Higher coefficients vanish identically and are not computed.
    """
    if m is not None:
        return _c_residue(n, m)
    _validated_range(n, ctx, d)
    cap = digit_sum_cap(n, ctx)
    return UPoly([s_exact(i, n, ctx, budget=budget) for i in range(cap + 1)])


def _c_residue(n, m):
    ctx = m.ctx
    if not 1 <= n <= m.group_order - 1:
        raise OutOfRangeError(
            f"n={n} outside [1, q^d-2] = [1, {m.group_order - 1}]")
    cap = min(digit_sum_cap(n, ctx), m.d - 1)
    return UPoly([s_mod(i, n, m) for i in range(cap + 1)], RESIDUE, m)


def b_poly(n: int, ctx: FieldCtx, m: Modulus | None = None,
           d: int | None = None, budget: int | None = None) -> UPoly:
    """B_n(u): partial-sum coefficients for zero-class n, C_n(u) otherwise.

    In exact mode the zero-class polynomial is cross-checked against the
    synthetic division of C_n(u) by (1 - u); a nonzero remainder or a
    quotient mismatch signals an arithmetic bug and raises.
    """
    if m is not None:
        return _b_residue(n, m)
    _validated_range(n, ctx, d)
    q = ctx.q
    c = c_poly(n, ctx, budget=budget)
    if n % (q - 1) != 0:
        return c
    partial = []
    acc = FqPoly.zero(ctx)
    for coeff in c.coeffs[:-1]:
        acc = acc + coeff
        partial.append(acc)
    by_sums = UPoly(partial)
    quotient, remainder = divide_by_one_minus_u(c)
    if not remainder.is_zero():
        raise DivisionRemainderError(
            f"C_{n}(1) = {format_poly(remainder)} != 0 for zero-class n")
    if quotient != by_sums:
        raise InternalError(
            f"partial-sum and division constructions of B_{n} disagree")
    return by_sums


def _b_residue(n, m):
    ctx = m.ctx
    q = ctx.q
    c = _c_residue(n, m)
    if n % (q - 1) != 0:
        return c
    # partial sums up to u^(d-2); entries past the vanishing cap stay constant
    # (and are zero because C_n(1) = 0), normalization strips them
    partial = []
    acc = FqPoly.zero(ctx)
    for i in range(m.d - 1):
        acc = acc + c.coefficient(i)
        partial.append(acc)
    return UPoly(partial, RESIDUE, m)

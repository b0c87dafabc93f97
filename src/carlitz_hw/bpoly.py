"""Generating polynomials of power sums in an auxiliary variable u.

C_n(u) = sum_i s_i(n) u^i is a polynomial because s_i(n) = 0 once i exceeds
floor(l(n)/(q-1)).  B_n(u) is C_n(u) for exponents outside the zero class;
for zero-class n the coefficients switch to the partial sums of the s_i
(equivalently B_n = C_n/(1-u), exact because C_n(1) = 0 there), truncated at
u^(d-2).  B_n depends on n alone, so exact mode takes no degree d; d
enters only with the modulus m.  C_n and B_n are each built by one
body for both coefficient rings; the identity B_n = C_n/(1-u) is checked by
the division verify suite (oracle), not on every construction.

A UPoly stores its FqPoly coefficients ascending in u, exact in F_q[T], or
reduced mod an irreducible m when it has that modulus (every coefficient of
degree < d); u_degree of the zero polynomial is -inf.

This module builds whole polynomials, every s_i(n) up to the cap, the top
one first: it is the costliest, so a C_n or B_n over the budget of s_exact
or s_mod is refused before any cheaper term is computed.  It serves the
bpoly command and the oracle module (z_bar and the verify suites), and it
is the oracle of the degree engine, which reads single coefficients of
B_n from the power sums alone (invariants) and never builds B_n.
Neither the engine nor scan imports it; the CLI imports it inside the
bpoly command.
"""

from __future__ import annotations

from .digits import ell
from .errors import DomainError, OutOfRangeError, _shown
from .fieldcore import FieldCtx
from .polyring import NEG_INF, FqPoly, Modulus, format_poly
from .powersums import s_exact, s_mod


class UPoly:
    """Polynomial in u with FqPoly coefficients, reduced mod modulus when it
    is given; immutable and normalized."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: Modulus | None = None):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        if modulus is not None:
            for c in cs:
                if len(c.coeffs) > modulus.d:
                    raise DomainError("residue coefficient of degree >= d")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    @property
    def u_degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def __mul__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        if self.modulus != other.modulus:
            raise DomainError("UPoly operands have different coefficient domains")
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly((), self.modulus)
        ctx = a[0].ctx
        out = [FqPoly.zero(ctx) for _ in range(len(a) + len(b) - 1)]
        m = self.modulus
        for i, x in enumerate(a):
            if x.is_zero():
                continue
            for j, y in enumerate(b):
                if y.is_zero():
                    continue
                if m is None:
                    prod = x * y
                else:  # by the one product mod m
                    prod = FqPoly(ctx, m._mulmod(x.coeffs, y.coeffs), check=False)
                out[i + j] = out[i + j] + prod
        return UPoly(out, self.modulus)

    def __eq__(self, other):
        return (isinstance(other, UPoly) and self.coeffs == other.coeffs
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.coeffs, self.modulus))

    def __repr__(self):
        inner = "; ".join(format_poly(c) for c in self.coeffs) or "0"
        return f"UPoly[{'exact' if self.modulus is None else 'residue'}]({inner})"


def one_upoly(ctx: FieldCtx, m: Modulus | None = None) -> UPoly:
    return UPoly((FqPoly.one(ctx),), m)


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
    return UPoly(quotient, c_poly.modulus), remainder


def c_poly(n: int, ctx: FieldCtx, m: Modulus | None = None) -> UPoly:
    """C_n(u) with coefficients s_i(n), i = 0..floor(l(n)/(q-1)).

    Residue mode when m is given (coefficients reduced mod m, n checked
    against m's degree), exact otherwise (n < 1 has cap 0, and s_exact
    rejects it).  Higher coefficients vanish identically and are not
    computed.  The top coefficient is computed first: it is the costliest,
    so its budget check is the first one made.
    """
    if m is not None:
        ctx = m.ctx
        top = m.group_order - 1  # q^d - 2
        if not 1 <= n <= top:
            raise OutOfRangeError(f"n={_shown(n)} outside [1, q^d-2] = [1, {top}]")
    q = ctx.q
    cap = ell(n, q) // (q - 1)
    top_down = range(cap, -1, -1)
    if m is not None:
        return UPoly([s_mod(i, n, m) for i in top_down][::-1], m)
    return UPoly([s_exact(i, n, ctx) for i in top_down][::-1])


def b_poly(n: int, ctx: FieldCtx, m: Modulus | None = None) -> UPoly:
    """B_n(u): partial-sum coefficients for zero-class n, C_n(u) otherwise.

    The partial sums stop below deg C_n: from there on they equal
    C_n(1) = 0.  Both coefficient rings take the same loop; that it agrees
    with C_n(u)/(1 - u) is checked by the division verify suite.
    """
    c = c_poly(n, ctx, m)
    if n % (ctx.q - 1) != 0:
        return c
    partial = []
    acc = FqPoly.zero(ctx)
    for coeff in c.coeffs[:-1]:
        acc = acc + coeff
        partial.append(acc)
    return UPoly(partial, c.modulus)

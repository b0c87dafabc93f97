"""The brute-force oracle that certifies the degree engine: B_n built
whole by bpoly.b_poly (_bbar_degree, z_bar), the degree-one closed form
and f_poly, and the identity suites of the verify command.  Each suite
sits in one table with its whole-run estimate, its item count times the
cost of its costliest item (d digit operations, exact_cost or mod_cost);
run_verify_suite checks that against the budget once, before the suite
starts, so a suite runs every item or none.  Nothing in the engine
imports this module; the CLI does inside the verify command.  s_exact and
s_mod stay in powersums, which bpoly reads, and SUITE_NAMES in invariants,
which the CLI parser reads.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bpoly import b_poly, c_poly, divide_by_one_minus_u, one_upoly
from .digits import ell, gekeler_degree_bound
from .errors import ClosedFormWindowError, InternalError, OutOfRangeError, PrimeFieldOnlyError
from .fieldcore import FieldCtx
from .invariants import SUITE_NAMES, genus
from .polyring import (
    FqPoly, Modulus, field_order, format_poly, irreducible_count, irreducible_enumerate,
    residue_pow)
from .powersums import check_budget, exact_cost, mod_cost, s_exact, s_mod


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
    coeff = -math.comb(b, p - 1 - a) % p
    tp_minus_t = FqPoly(ctx, [0, (-1) % p] + [0] * (p - 2) + [1], check=False)
    return (tp_minus_t ** (a + b - (p - 1))).scale(coeff)


def f_poly(n: int, ctx: FieldCtx) -> FqPoly:
    """1 + s_1(n), the exact polynomial whose residue decides the zero-class
    degree drop; carries the shift/scale/reversal symmetries for zero-class n."""
    return FqPoly.one(ctx) + s_exact(1, n, ctx)


def _bbar_degree(n: int, m: Modulus) -> int:
    """The u-degree of B_n mod m, built bottom-up by b_poly: the oracle of
    the degree engine's reads."""
    b = b_poly(n, m.ctx, m=m)
    if b.is_zero() or b.coeffs[0] != FqPoly.one(m.ctx):
        raise InternalError(
            f"reduced generating polynomial at n={n} lost its constant term 1")
    return b.u_degree


def z_bar(m: Modulus):
    """The reduced zeta numerators: products of the reduced generating
    polynomials over all exponents and over the zero class.  Their u-degrees
    are lambda and lambda_plus."""
    ctx = m.ctx
    q = ctx.q
    full = plus = one_upoly(ctx, m)
    for n in range(1, m.group_order):
        b = b_poly(n, ctx, m=m)
        full = full * b
        if n % (q - 1) == 0:
            plus = plus * b
    return full, plus


# ---------------------------------------------------------------------------
# identity suites

IdentityCheck = namedtuple("IdentityCheck", ["name", "passed", "detail"])


def _check(name, passed, detail=""):
    return IdentityCheck(name, bool(passed), "" if passed else detail)


def verify_identities(ctx: FieldCtx, d: int) -> list[IdentityCheck]:
    """Enumerative digit-sum identities against their closed forms, and the
    genus formulas against the target-degree sums."""
    q = ctx.q
    g, g_plus = genus(ctx, d)
    top = q**d - 2
    s = (q**d - 1) // (q - 1)
    zero_sum = nonzero_sum = 0
    zero_tgt = all_tgt = 0
    sym_bad = None
    for n in range(1, top + 1):
        l_n = ell(n, q)
        if l_n + ell(q**d - 1 - n, q) != (q - 1) * d and sym_bad is None:
            sym_bad = n
        t = l_n // (q - 1)
        if n % (q - 1) == 0:
            zero_sum += t
            zero_tgt += t - 1
            all_tgt += t - 1
        else:
            nonzero_sum += t
            all_tgt += t
    checks = [
        _check("digit-symmetry", sym_bad is None, f"counterexample n={sym_bad}"),
        _check("lemma31-zero-sum",
               2 * zero_sum == d * (s - 1),
               f"sum {zero_sum} != {d}*({s}-1)/2"),
        _check("lemma31-nonzero-sum",
               2 * (q - 1) * nonzero_sum == (d - 1) * (q - 2) * (q**d - 1),
               f"sum {nonzero_sum} != (d-1)(q-2)(q^d-1)/(2(q-1))"),
        _check("genus-target-sum", all_tgt == g, f"sum {all_tgt} != g {g}"),
        _check("genus-plus-target-sum", zero_tgt == g_plus,
               f"sum {zero_tgt} != g+ {g_plus}"),
    ]
    return checks


def _suite_digits(ctx, d):
    q = ctx.q
    top = q**d - 2
    cong_bad = sym_bad = None
    for n in range(1, top + 1):
        l_n = ell(n, q)
        if (l_n - n) % (q - 1) != 0 and cong_bad is None:
            cong_bad = n
        if l_n + ell(q**d - 1 - n, q) != (q - 1) * d and sym_bad is None:
            sym_bad = n
    return [
        _check("digit-symmetry", sym_bad is None, f"counterexample n={sym_bad}"),
        _check("zero-class-congruence", cong_bad is None,
               f"counterexample n={cong_bad}"),
    ]


def _suite_gekeler(ctx, d):
    q = ctx.q
    prime_field = ctx.e == 1
    top = q**d - 2
    bound_bad = eq_bad = vanish_bad = None
    for n in range(1, top + 1):
        l_n = ell(n, q)
        for i in range(d):
            s_poly = s_exact(i, n, ctx)
            bound = gekeler_degree_bound(i, n, ctx)
            if not s_poly.degree <= bound and bound_bad is None:
                bound_bad = (i, n)
            if prime_field and s_poly.degree != bound and eq_bad is None:
                eq_bad = (i, n)
            vanish_expected = l_n < i * (q - 1)
            if vanish_expected and not s_poly.is_zero() and vanish_bad is None:
                vanish_bad = (i, n)
            if (prime_field and s_poly.is_zero() and not vanish_expected
                    and vanish_bad is None):
                vanish_bad = (i, n)
    checks = [
        _check("power-sum-degree-bound", bound_bad is None,
               f"counterexample (i,n)={bound_bad}"),
        _check("power-sum-vanishing", vanish_bad is None,
               f"counterexample (i,n)={vanish_bad}"),
    ]
    if prime_field:
        checks.insert(1, _check("power-sum-degree-equality", eq_bad is None,
                                f"counterexample (i,n)={eq_bad}"))
    return checks


def _suite_frobenius(ctx, d):
    p = ctx.p
    deg_bad = twist_bad = None
    for m in irreducible_enumerate(ctx, d):
        order = m.group_order
        degs = [None] * order
        for n in range(1, order):
            degs[n] = _bbar_degree(n, m)
        for n in range(1, order):
            n2 = p * n % order
            if degs[n2] != degs[n] and deg_bad is None:
                deg_bad = (format_poly(m.poly), n)
            for i in range(d):
                lhs = s_mod(i, n2, m)
                rhs = residue_pow(s_mod(i, n, m), p, m)
                if lhs != rhs and twist_bad is None:
                    twist_bad = (format_poly(m.poly), i, n)
    return [
        _check("reduced-degree-orbit-invariance", deg_bad is None,
               f"counterexample (m,n)={deg_bad}"),
        _check("power-sum-frobenius-twist", twist_bad is None,
               f"counterexample (m,i,n)={twist_bad}"),
    ]


def _suite_division(ctx, d):
    """B_n = C_n/(1 - u) at every zero-class n: the only place the division
    identity is computed; b_poly builds B_n from partial sums alone."""
    q = ctx.q
    rem_bad = agree_bad = None
    for n in range(q - 1, q**d - 1, q - 1):
        quotient, remainder = divide_by_one_minus_u(c_poly(n, ctx))
        b = b_poly(n, ctx)
        if not remainder.is_zero() and rem_bad is None:
            rem_bad = n
        if quotient != b and agree_bad is None:
            agree_bad = n
    return [
        _check("division-zero-remainder", rem_bad is None,
               f"counterexample n={rem_bad}"),
        _check("division-vs-partial-sums", agree_bad is None,
               f"counterexample n={agree_bad}"),
    ]


# name: (suite, whole-run estimate at top = q^d - 2), its item count times its
# costliest item: d digit operations per n, or d power sums per n (3d per
# modulus and n for frobenius: B_n mod m and both sides of the twist)
_SUITES = {
    "lemma31": (verify_identities, lambda ctx, d, top: d * top),
    "digits": (_suite_digits, lambda ctx, d, top: d * top),
    "gekeler": (_suite_gekeler, lambda ctx, d, top: d * top * exact_cost(d - 1, top, ctx)),
    "frobenius": (_suite_frobenius, lambda ctx, d, top: 3 * d * top
                  * irreducible_count(ctx, d) * mod_cost(d - 1, top, ctx, d)),
    # zero-class n only, the largest q^d - q
    "division": (_suite_division, lambda ctx, d, top: d * (top // (ctx.q - 1))
                 * exact_cost(d - 1, top + 2 - ctx.q, ctx)),
}


def run_verify_suite(name: str, ctx: FieldCtx, d: int) -> list[IdentityCheck]:
    """One named identity suite at (q, d), within the q^d limit and, by its
    whole-run estimate, the budget; see SUITE_NAMES."""
    top = field_order(ctx, d) - 2
    if name not in _SUITES:
        raise OutOfRangeError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    suite, estimate = _SUITES[name]
    check_budget(f"verify suite {name}", estimate(ctx, d, top))
    return suite(ctx, d)

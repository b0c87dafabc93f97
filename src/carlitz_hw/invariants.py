"""Genus formulas, Hasse-Witt invariants, ordinariness decisions and the
mod-p zeta numerators, plus the enumerative identity suites behind the
CLI verify command.

For a monic irreducible modulus m of degree d the invariant lambda is the
sum over 1 <= n <= q^d - 2 of the u-degrees of the reduced generating
polynomials; lambda_plus restricts to zero-class n.  Each degree never
exceeds the combinatorial target floor(l(n)/(q-1)) (minus one in the zero
class), the genus is the sum of the targets, and a strict drop at any n is a
defect certifying non-ordinariness.

All consumers read one degree engine, degree_stream, which yields
(n, degree, target) over ascending exponents: hasse_witt takes the whole
stream, and first_defects (behind is_ordinary and is_ordinary_plus) takes
one early-exit pass.  Multiplying n by p modulo q^d - 1 raises every
coefficient to the p-th power and therefore preserves the u-degree, so the
stream computes degrees once per orbit of n -> p*n; the orbit route is the
default and must stay exactly equivalent to the naive scan
(use_orbit=False).  z_bar and the frobenius suite compute every degree
without sharing and so check that equivalence independently.

One function reads a degree, _reduced_degree: top-down, it asks the
stream's power-sum source (powersums.ResidueSums) whether s_i(n) mod m
vanishes and stops at the first nonzero power sum.  Which route answers,
square-and-multiply or a discrete-log table, is the source's choice.
_bbar_degree, which builds all of B_n mod m bottom-up through b_poly, is the
oracle of that reader, for the frobenius suite and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bpoly import RESIDUE, b_poly, c_poly, divide_by_one_minus_u, one_upoly
from .digits import ell, gekeler_degree_bound, rho, rho_exponents, target_degrees
from .errors import (
    CostCeilingError,
    DivisionRemainderError,
    InternalError,
    OutOfRangeError,
    OverflowLimitError,
    ParityError,
)
from .fieldcore import FieldCtx
from .polyring import (
    NEG_INF,
    FqPoly,
    Modulus,
    format_poly,
    irreducible_enumerate,
    residue_pow,
)
from .powersums import ResidueSums, check_budget, residue_cost, s_exact, s_mod


def genus(ctx: FieldCtx, d: int) -> tuple[int, int]:
    """(g, g_plus) from the closed formulas

        2g  = (dq - d - q) (q^d - 1)/(q - 1) - (d - 2)
        2g+ = (d - 2) ((q^d - 1)/(q - 1) - 1)

    Both right-hand sides are provably even; an odd value means the formula
    was transcribed wrongly and raises ParityError.
    """
    if d < 1:
        raise OutOfRangeError(f"d must be >= 1, got {d}")
    q = ctx.q
    if q**d > ctx.limit:
        raise OverflowLimitError("q^d", q**d, ctx.limit)
    s = (q**d - 1) // (q - 1)
    two_g = (d * q - d - q) * s - (d - 2)
    two_gp = (d - 2) * (s - 1)
    if two_g % 2 or two_g < 0:
        raise ParityError(f"2g = {two_g} is not a nonnegative even integer")
    if two_gp % 2 or two_gp < 0:
        raise ParityError(f"2g+ = {two_gp} is not a nonnegative even integer")
    return two_g // 2, two_gp // 2


@dataclass(frozen=True)
class Defect:
    n: int
    target: int
    actual: int


@dataclass
class InvariantsReport:
    p: int
    e: int
    q: int
    field_modulus: str
    m: str
    d: int
    g: int
    g_plus: int
    lambda_: int
    lambda_plus: int
    ordinary: bool
    ordinary_plus: bool
    supersingular: bool
    defects: list[Defect] = field(default_factory=list)
    defects_plus: list[Defect] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """Stable key set and ordering for serialization."""
        return {
            "p": self.p, "e": self.e, "q": self.q,
            "field_modulus": self.field_modulus,
            "m": self.m, "d": self.d,
            "g": self.g, "g_plus": self.g_plus,
            "lambda": self.lambda_, "lambda_plus": self.lambda_plus,
            "ordinary": self.ordinary, "ordinary_plus": self.ordinary_plus,
            "supersingular": self.supersingular,
            "defects": [{"n": f.n, "target": f.target, "actual": f.actual}
                        for f in self.defects],
            "defects_plus": [{"n": f.n, "target": f.target, "actual": f.actual}
                             for f in self.defects_plus],
        }


def _bbar_degree(n: int, m: Modulus) -> int:
    """The u-degree of B_n mod m, built bottom-up by b_poly: the oracle of
    _reduced_degree."""
    b = b_poly(n, m.ctx, m=m)
    if b.is_zero() or b.coeffs[0] != FqPoly.one(m.ctx):
        raise InternalError(
            f"reduced generating polynomial at n={n} lost its constant term 1")
    return b.u_degree


def _reduced_degree(n: int, sums: ResidueSums, cap: int, zero_class: bool) -> int:
    """The u-degree of B_n mod m, read top-down from the power-sum source of
    m: the largest i <= cap with s_i(n) != 0, one less in the zero class.
    There C_n(1) = 0 makes the partial sum P_(i-1) = -(s_i + ... + s_cap),
    which is -s_i at the first nonzero s_i from the top.  An exponent at its
    target costs one power sum, and s_0 = 1 is never computed."""
    for i in range(cap, 0, -1):
        if not sums.vanishes(i, n):
            return i - 1 if zero_class else i
    if zero_class:  # s_0 = 1 would be all of C_n(1)
        raise DivisionRemainderError(f"C_{n}(1) = 1 != 0 for zero-class n")
    return 0


def degree_stream(m: Modulus, use_orbit: bool = True, exponents=None,
                  budget: int | None = None):
    """Yield (n, degree, target) for ascending exponents n, by default every
    1 <= n <= q^d - 2: the u-degree of the reduced generating polynomial and
    its digit-sum target.

    With use_orbit each degree is computed once per Frobenius orbit
    n -> p*n mod (q^d - 1) and remembered for the whole orbit; without it
    every degree is computed.  Targets come from the per-(q, d) table, since
    the digit sum is not orbit-invariant unless q = p.

    Every degree is read by _reduced_degree from one ResidueSums of m.
    residue_cost(m) is checked against budget before the memo or the
    source's table is allocated (CostCeilingError).
    """
    ctx, d, order = m.ctx, m.d, m.group_order
    p, q1 = ctx.p, ctx.q - 1
    check_budget(f"degree stream mod {format_poly(m.poly)}", residue_cost(m), budget)
    targets = target_degrees(ctx, d)
    sums = ResidueSums(m)
    known = [None] * order if use_orbit else None
    for n in range(1, order) if exponents is None else exponents:
        tgt = targets[n]
        deg = known[n] if use_orbit else None
        if deg is None:
            zero_class = n % q1 == 0
            deg = _reduced_degree(n, sums, tgt + zero_class, zero_class)
            if use_orbit:
                cur = n
                while known[cur] is None:
                    known[cur] = deg
                    cur = cur * p % order
        if deg > tgt:
            raise InternalError(
                f"degree {deg} exceeds target {tgt} at n={n} mod {format_poly(m.poly)}")
        yield n, deg, tgt


def hasse_witt(m: Modulus, use_orbit: bool = True,
               budget: int | None = None) -> InvariantsReport:
    """Full invariant report for one modulus, from the whole degree stream."""
    ctx = m.ctx
    d = m.d
    q = ctx.q
    g, g_plus = genus(ctx, d)
    lam = lam_plus = 0
    defects: list[Defect] = []
    defects_plus: list[Defect] = []
    for n, deg, tgt in degree_stream(m, use_orbit, budget=budget):
        lam += deg
        zero_class = n % (q - 1) == 0
        if zero_class:
            lam_plus += deg
        if deg != tgt:
            defects.append(Defect(n, tgt, deg))
            if zero_class:
                defects_plus.append(Defect(n, tgt, deg))
    ordinary = not defects
    ordinary_plus = not defects_plus
    if ordinary != (lam == g) or ordinary_plus != (lam_plus == g_plus):
        raise InternalError("ordinariness flags disagree with lambda sums")
    if g - lam != sum(f.target - f.actual for f in defects):
        raise InternalError("defect total disagrees with g - lambda")
    return InvariantsReport(
        p=ctx.p, e=ctx.e, q=q,
        field_modulus=ctx.format_field_modulus(),
        m=format_poly(m.poly), d=d,
        g=g, g_plus=g_plus, lambda_=lam, lambda_plus=lam_plus,
        ordinary=ordinary, ordinary_plus=ordinary_plus,
        supersingular=lam == 0,
        defects=defects, defects_plus=defects_plus)


def first_defects(m: Modulus, use_orbit: bool = True,
                  budget: int | None = None) -> tuple[int | None, int | None]:
    """The least defective exponent and the least defective zero-class
    exponent, None where there is none, in one early-exit pass over the
    degree stream: after the first defect only zero-class exponents are
    evaluated."""
    q1 = m.ctx.q - 1
    first = None

    def exponents():  # reads `first` as the stream asks for the next n
        n = 1
        while n < m.group_order:
            yield n
            n = n + 1 if first is None else n + q1 - n % q1

    for n, deg, tgt in degree_stream(m, use_orbit, exponents(), budget):
        if deg != tgt:
            if first is None:
                first = n
            if n % q1 == 0:
                return first, n
    return first, None


def is_ordinary(m: Modulus) -> tuple[bool, int | None]:
    """(ordinary, least defective exponent or None)."""
    n = first_defects(m)[0]
    return n is None, n


def is_ordinary_plus(m: Modulus) -> tuple[bool, int | None]:
    """(ordinary_plus, least defective zero-class exponent or None)."""
    n = first_defects(m)[1]
    return n is None, n


def z_bar(m: Modulus):
    """The reduced zeta numerators: products of the reduced generating
    polynomials over all exponents and over the zero class.  Their u-degrees
    are lambda and lambda_plus."""
    ctx = m.ctx
    q = ctx.q
    full = one_upoly(ctx, RESIDUE, m)
    plus = one_upoly(ctx, RESIDUE, m)
    for n in range(1, m.group_order):
        b = b_poly(n, ctx, m=m)
        full = full * b
        if n % (q - 1) == 0:
            plus = plus * b
    return full, plus


# ---------------------------------------------------------------------------
# identity suites

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


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
    cong_bad = rho_bad = sym_bad = None
    for n in range(1, top + 1):
        l_n = ell(n, q)
        if (l_n - n) % (q - 1) != 0 and cong_bad is None:
            cong_bad = n
        if l_n + ell(q**d - 1 - n, q) != (q - 1) * d and sym_bad is None:
            sym_bad = n
        # digit-vector rho against the integer definition
        exps = rho_exponents(n, q)
        want = NEG_INF if len(exps) < q - 1 else n - sum(q**e for e in exps[:q - 1])
        if rho(n, q) != want and rho_bad is None:
            rho_bad = n
    return [
        _check("digit-symmetry", sym_bad is None, f"counterexample n={sym_bad}"),
        _check("zero-class-congruence", cong_bad is None,
               f"counterexample n={cong_bad}"),
        _check("rho-digit-vs-integer", rho_bad is None,
               f"counterexample n={rho_bad}"),
    ]


def _suite_gekeler(ctx, d, budget):
    q = ctx.q
    prime_field = ctx.e == 1
    top = q**d - 2
    bound_bad = eq_bad = vanish_bad = None
    skipped = 0
    for n in range(1, top + 1):
        l_n = ell(n, q)
        for i in range(d):
            try:
                s_poly = s_exact(i, n, ctx, budget=budget)
            except CostCeilingError:
                skipped += 1
                continue
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
    note = f" ({skipped} pairs over budget)" if skipped else ""
    checks = [
        _check("power-sum-degree-bound", bound_bad is None,
               f"counterexample (i,n)={bound_bad}"),
        _check("power-sum-vanishing", vanish_bad is None,
               f"counterexample (i,n)={vanish_bad}"),
    ]
    if prime_field:
        checks.insert(1, _check("power-sum-degree-equality", eq_bad is None,
                                f"counterexample (i,n)={eq_bad}{note}"))
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


def _suite_division(ctx, d, budget):
    q = ctx.q
    top = q**d - 2
    rem_bad = agree_bad = None
    skipped = 0
    for n in range(1, top + 1):
        try:
            c = c_poly(n, ctx, budget=budget)
            b = b_poly(n, ctx, budget=budget)
        except CostCeilingError:
            skipped += 1
            continue
        if n % (q - 1) == 0:
            quotient, remainder = divide_by_one_minus_u(c)
            if not remainder.is_zero() and rem_bad is None:
                rem_bad = n
            if quotient != b and agree_bad is None:
                agree_bad = n
        elif b != c and agree_bad is None:
            agree_bad = n
    note = f" ({skipped} exponents over budget)" if skipped else ""
    return [
        _check("division-zero-remainder", rem_bad is None,
               f"counterexample n={rem_bad}{note}"),
        _check("division-vs-partial-sums", agree_bad is None,
               f"counterexample n={agree_bad}"),
    ]


SUITE_NAMES = ("lemma31", "digits", "gekeler", "frobenius", "division")


def run_verify_suite(name: str, ctx: FieldCtx, d: int,
                     budget: int | None = None) -> list[IdentityCheck]:
    """One named identity suite at (q, d); see SUITE_NAMES."""
    if name == "lemma31":
        return verify_identities(ctx, d)
    if name == "digits":
        return _suite_digits(ctx, d)
    if name == "gekeler":
        return _suite_gekeler(ctx, d, budget)
    if name == "frobenius":
        return _suite_frobenius(ctx, d)
    if name == "division":
        return _suite_division(ctx, d, budget)
    raise OutOfRangeError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")

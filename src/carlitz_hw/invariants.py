"""Genus formulas, Hasse-Witt invariants and ordinariness decisions: the
degree engine.  The brute-force code that certifies it (z_bar, the oracle
_bbar_degree and the identity suites of the verify command) lives in
oracle, which this module does not import.

For a monic irreducible modulus m of degree d the invariant lambda is the
sum over 1 <= n <= q^d - 2 of the u-degrees of the reduced generating
polynomials; lambda_plus restricts to zero-class n.  Each degree never
exceeds the combinatorial target floor(l(n)/(q-1)) (minus one in the zero
class), the genus is the sum of the targets, and a strict drop at any n is a
defect certifying non-ordinariness.

The engine has two passes over the orbits of n -> q*n mod (q^d - 1),
each in ascending n, its least member.  The full pass, defect_pass, reads
the degree and target of every orbit and from them lambda, lambda_plus,
the least defects and the defective orbits, and checks each degree
against its target and the flags and g - lambda against the genus: scan's
full mode reads it, and hasse_witt expands its defective orbits into their
members.  The early-exit pass, first_defects, reads only the least defects
(scan's witness mode, is_ordinary and is_ordinary_plus).  Multiplying n by q
rotates its base-q digits, so the target and the zero class are constant
on such an orbit; multiplying by p raises every coefficient to the p-th
power, so each read is made once per orbit of n -> p*n, at its least
member.  The orbits and their targets depend only on (q, d) and are read
from the residue field's LogTable (LogTable.orbits), built once per table
and so once per scan.  The tests expand every orbit and compare it with a
top-down read at every exponent against digits.target_degree, and
oracle.z_bar and the frobenius suite compute every degree without
sharing, so they check the orbit reduction independently.

A degree is the largest j <= target whose u^j coefficient of B_n mod m
does not vanish, and 0 when none does, as the u^0 coefficient is 1; it is
read from the power sums of m at one of its roots (powersums.RootSums, on
a discrete-log table of F_{q^d}).  Outside the zero class that coefficient
is s_j(n).  In the zero class, where n is a trivial zero of the
Carlitz-Goss zeta function and C_n(1) = 0, it is the partial sum
1 + s_1 + ... + s_j, which gathers (q^(j+1) - 1)/(q - 1) terms where
s_(j+1), the coefficient that decides the same degree, would gather
q^(j+1).  Both are a read over a range of degrees of the monic a.  The
full pass reads every degree in one level walk (_level_degrees): the
exponents wait at their targets, split by zero class, and from the
highest level down each level and class is one RootSums.vanishing call,
which answers for every exponent there; one whose coefficient vanishes
moves down a level.  The early-exit pass needs no degree: an orbit is
defective exactly when its u^target coefficient vanishes, so it makes at
most one RootSums.vanishes read per orbit, none at target 0 or in a class
under p whose least member is at target 0 (so the class is at degree 0),
and reads nothing past its exit.  The engine reads one RootSums, which
scan cuts from the field it builds.  Only the public entry points,
hasse_witt, is_ordinary and is_ordinary_plus, take a Modulus: they read
it at its root in the field of its (q, d) kept by the process
(RootSums.of), which checks the budget (CARLITZ_HW_BUDGET) on every call.
oracle._bbar_degree, which builds all of B_n mod m bottom-up through
b_poly, is the oracle of both passes.

Over F_2 every modulus is ordinary and ordinary+ (README, "How degrees are
computed").  There every n is zero-class with target w - 1,
w = popcount(n).  For n = sum_j 2^(k_j) and the conjugates
theta_j = theta^(2^(k_j)) of a root theta of m, s_w(n)(theta) expands,
over the monic a of degree w, to the permanent of [theta_j^t], which in
characteristic 2 is the Vandermonde determinant
prod_(j<l) (theta_j + theta_l), nonzero since the theta_j are distinct.
So the first read, the partial sum 1 + s_1 + ... + s_(w-1) = -s_w(n),
does not vanish: every n is at target, and lambda = g, lambda+ = g+.  The
engine has no shortcut for this.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InternalError, ParityError
from .fieldcore import FieldCtx
from .polyring import Modulus, field_order, format_coeffs
from .powersums import RootSums

def genus(ctx: FieldCtx, d: int) -> tuple[int, int]:
    """(g, g_plus) from the closed formulas

        2g  = (dq - d - q) (q^d - 1)/(q - 1) - (d - 2)
        2g+ = (d - 2) ((q^d - 1)/(q - 1) - 1)

    Both right-hand sides are provably even; an odd value means the formula
    was transcribed wrongly and raises ParityError.  d and q^d are checked
    as for a residue field (polyring.field_order).
    """
    q = ctx.q
    s = (field_order(ctx, d) - 1) // (q - 1)
    two_g = (d * q - d - q) * s - (d - 2)
    two_gp = (d - 2) * (s - 1)
    if two_g % 2 or two_g < 0:
        raise ParityError(f"2g = {two_g} is not a nonnegative even integer")
    if two_gp % 2 or two_gp < 0:
        raise ParityError(f"2g+ = {two_gp} is not a nonnegative even integer")
    return two_g // 2, two_gp // 2


Defect = namedtuple("Defect", ["n", "target", "actual"])


class InvariantsReport(namedtuple("InvariantsReport", [
        "p", "e", "q", "field_modulus", "m", "d", "g", "g_plus", "lambda_",
        "lambda_plus", "ordinary", "ordinary_plus", "supersingular",
        "defects", "defects_plus"])):
    """The invariants of one modulus; defects and defects_plus are lists of
    Defect in ascending n."""
    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The report keyed by its fields, in field order, lambda_ written as
        lambda and each Defect as {n, target, actual}."""
        out = dict(zip([f.rstrip("_") for f in self._fields], self))
        for key in ("defects", "defects_plus"):
            out[key] = [f._asdict() for f in out[key]]
        return out


def _level_degrees(sums: RootSums, orbits) -> dict[int, int]:
    """{r: degree} for the least member r of every orbit under n -> p*n,
    from its own (r, size, r, target) in orbits, read level by level from
    the highest target down with one sums.vanishing call per level and
    class: an r whose u^j coefficient does not vanish has degree j, one
    whose does moves down to level j - 1, and one that reaches level 0 has
    degree 0.  So r is read at the (degrees, r) pairs of a top-down walk
    from its target."""
    q1 = sums.table.ctx.q - 1
    levels = [([], []) for _ in range(sums.table.d)]  # by target (< d), by zero class
    for n, _, r, tgt in orbits:
        if n == r:
            levels[tgt][n % q1 == 0].append(n)
    degrees = {}
    for j in range(len(levels) - 1, 0, -1):
        for zero_class, ns in enumerate(levels[j]):
            if ns:
                flags = sums.vanishing(range(0 if zero_class else j, j + 1), ns)
                for n, vanishes in zip(ns, flags):
                    if vanishes:
                        levels[j - 1][zero_class].append(n)
                    else:
                        degrees[n] = j
    for ns in levels[0]:
        degrees.update(dict.fromkeys(ns, 0))
    return degrees


def hasse_witt(m: Modulus) -> InvariantsReport:
    """Full invariant report for one modulus, read at its root by
    RootSums.of (which checks the budget first) in the checked full
    defect_pass; only the defective orbits it returns are expanded into
    their members."""
    sums = RootSums.of(m)
    table = sums.table
    ctx, d = table.ctx, table.d
    q = ctx.q
    g, g_plus = genus(ctx, d)
    first, first_plus, lam, lam_plus, defective = defect_pass(sums, (g, g_plus))
    defects = sorted(Defect(n * q**j % table.order, tgt, deg)
                     for n, size, deg, tgt in defective for j in range(size))
    return InvariantsReport(
        p=ctx.p, e=ctx.e, q=q,
        field_modulus=ctx.format_field_modulus(),
        m=format_coeffs(ctx, sums.codes), d=d,
        g=g, g_plus=g_plus, lambda_=lam, lambda_plus=lam_plus,
        ordinary=first is None, ordinary_plus=first_plus is None,
        supersingular=lam == 0,
        defects=defects, defects_plus=[f for f in defects if f.n % (q - 1) == 0])


def defect_pass(sums: RootSums, genera: tuple[int, int]) -> tuple:
    """(first, first_plus, lambda, lambda_plus, defective) in one pass over
    the orbits of n -> q*n mod (q^d - 1) but {0} in sums.table.orbits, in
    ascending n, its least member: the least defective exponent and the
    least defective zero-class exponent, None where there is none, and the
    defective orbits, as (n, size, degree, target) in ascending n.  Every
    degree is read before the loop, level by level (_level_degrees), once
    per Frobenius orbit n -> p*n at its least member frob, and read back
    for the orbits under q there, whose targets may differ when e > 1.
    The least member of the first defective orbit is the least defect.
    InternalError is raised where a degree exceeds its target, where the
    flags disagree with the lambda sums against genera = (g, g_plus), and
    where g - lambda is not the total of target - degree over the defects."""
    table = sums.table
    q1 = table.ctx.q - 1
    orbits = table.orbits[1:]
    known = _level_degrees(sums, orbits)  # by least member of the orbit under p
    defective = []
    first = first_plus = None
    lam = lam_plus = 0
    for n, size, frob, tgt in orbits:
        deg = known[frob]
        if deg > tgt:
            raise InternalError(f"degree {deg} exceeds target {tgt} at n={n} "
                                f"mod {format_coeffs(table.ctx, sums.codes)}")
        zero_class = n % q1 == 0
        lam += size * deg
        if zero_class:
            lam_plus += size * deg
        if deg != tgt:
            defective.append((n, size, deg, tgt))
            if first is None:
                first = n
            if zero_class and first_plus is None:
                first_plus = n
    g, g_plus = genera
    if (first is None) != (lam == g) or (first_plus is None) != (lam_plus == g_plus):
        raise InternalError("ordinariness flags disagree with lambda sums")
    if g - lam != sum(size * (tgt - deg) for _, size, deg, tgt in defective):
        raise InternalError("defect total disagrees with g - lambda")
    return first, first_plus, lam, lam_plus, defective


def first_defects(sums: RootSums) -> tuple[int | None, int | None]:
    """The least defective exponent and the least defective zero-class
    exponent, None where there is none, from one read per class under p
    and target at most, at its least member frob (s_j(p*n) = s_j(n)^p), none
    if frob is at target 0, over the orbits at target >= 1 in ascending n:
    after the first defect only zero-class ones, up to the first defective."""
    q1 = sums.table.ctx.q - 1
    first = None
    flags = {}  # by (frob, target): targets differ within a class when e > 1
    flat = set()  # orbits at target 0: a class led by one is at degree 0
    for n, _, frob, tgt in sums.table.orbits:
        zero_class = n % q1 == 0
        if tgt <= 0 or not (zero_class or first is None):
            if tgt == 0:
                flat.add(n)
            continue
        vanishes = flags.get((frob, tgt))
        if vanishes is None:
            vanishes = flags[frob, tgt] = frob in flat or sums.vanishes(
                range(0 if zero_class else tgt, tgt + 1), frob)
        if vanishes:
            if zero_class:
                return n if first is None else first, n
            first = n  # other orbits are visited only before the first defect
    return first, None


def is_ordinary(m: Modulus) -> tuple[bool, int | None]:
    """(ordinary, least defective exponent or None)."""
    n = first_defects(RootSums.of(m))[0]
    return n is None, n


def is_ordinary_plus(m: Modulus) -> tuple[bool, int | None]:
    """(ordinary_plus, least defective zero-class exponent or None)."""
    n = first_defects(RootSums.of(m))[1]
    return n is None, n


# the verify suites of oracle.run_verify_suite; here, so that the CLI parser
# lists them without loading the oracle
SUITE_NAMES = ("lemma31", "digits", "gekeler", "frobenius", "division")

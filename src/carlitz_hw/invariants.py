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
power, so the degree is constant on a class under n -> p*n and at most
its cap, the least target of its orbits under q: each class is read once,
at its least member, from its cap down.  The orbits, targets and caps
depend only on (q, d) and are read from the residue field's LogTable, as
parallel lists over the orbits and over the classes, with the classes
binned by cap and zero class and the lambda sums of a modulus whose every
class stays at its cap, built once per table and so once per scan.  The
targets sum to the genus, so when no class falls below its cap and every
orbit is at its class's cap, the modulus is ordinary and the full pass
returns those sums with no orbit visited.  The tests expand every orbit
and compare it with a top-down read of every exponent against
digits.target_degree, and oracle.z_bar and the frobenius suite read every
degree without sharing: independent checks of the orbit reduction.

A degree is the largest j <= target whose u^j coefficient of B_n mod m
does not vanish, and 0 when none does, as the u^0 coefficient is 1; it is
read from the power sums of m at one of its roots (powersums.RootSums, on
a discrete-log table of F_{q^d}).  Outside the zero class that coefficient
is s_j(n).  In the zero class, where n is a trivial zero of the
Carlitz-Goss zeta function and C_n(1) = 0, it is the partial sum
1 + s_1 + ... + s_j, which gathers (q^(j+1) - 1)/(q - 1) terms where
s_(j+1), the coefficient that decides the same degree, would gather
q^(j+1).  Both are a read over a range of degrees of the monic a.  The full
pass reads every degree in one level walk (_level_degrees): the classes
wait at their caps, in the table's bins by cap and zero class, and from the
highest level down each level and class is one RootSums.vanishing call,
which answers for every class there; one whose coefficient vanishes moves
down a level.  The
early-exit pass needs no degree: an orbit is defective exactly when its
u^target coefficient vanishes, as it does above the cap, so it reads only
orbits at their cap, at most one RootSums.vanishes read per class, none at
target 0, and nothing past its exit.  The engine reads one RootSums, which
scan cuts from the field it builds.  Only the public entry points,
hasse_witt, is_ordinary and is_ordinary_plus, take a Modulus: they read it
at its root in the field of its (q, d) kept by the process (RootSums.of),
which checks the budget (CARLITZ_HW_BUDGET) on every call.
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
from operator import mul, sub

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


def _level_degrees(sums: RootSums) -> tuple[list[int], bool]:
    """(degrees, fell): the degree of every class under n -> p*n, indexed
    as in sums.table (class_n), and whether any is below its cap.  Read
    level by level from the highest cap down, each class at its least
    member, with one sums.vanishing call per level and class of the
    table's bins, the classes that fell from the level above after them:
    a class whose u^j coefficient does not vanish has degree j, one whose
    does falls to level j - 1, and one that reaches level 0 has degree 0.
    So each class is read at the (degrees, r) pairs of a top-down walk from
    its cap.  When nothing falls, degrees is the table's class_cap itself."""
    table = sums.table
    least, bins = table.class_n, table.bins
    degrees = caps = table.class_cap
    fallen = [[], []]  # by zero class: the classes that vanished a level up
    for j in range(table.d - 1, 0, -1):
        for zero_class, (cs, ns) in enumerate(bins[j]):
            down = fallen[zero_class]
            if down:
                cs, ns = cs + down, ns + [least[c] for c in down]
            elif not cs:
                continue
            flags = sums.vanishing(range(0 if zero_class else j, j + 1), ns)
            fallen[zero_class] = down = [c for c, vanishes in zip(cs, flags) if vanishes]
            if down:
                if degrees is caps:
                    degrees = caps[:]
                for c in down:
                    degrees[c] = j - 1
    return degrees, degrees is not caps


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
    """(first, first_plus, lambda, lambda_plus, defective) over the orbits
    of n -> q*n mod (q^d - 1) but {0} in sums.table, in ascending n, its
    least member: the least defective exponent and the least defective
    zero-class exponent, None where there is none, and the defective
    orbits, as (n, size, degree, target) in ascending n.  Every class's
    degree is read first, from its cap down (_level_degrees).  When no
    class fell and every orbit is at its class's cap (table.at_caps), every
    degree is at its target: lambda and lambda_plus are the table's
    cap_sums, with no orbit visited.  Otherwise each orbit takes its
    class's degree, and its deficit target - degree, in one list; the least
    member of the first orbit with a deficit is the least defect.
    InternalError is raised where a degree exceeds its target (a cap above
    it), where the flags disagree with the lambda sums against
    genera = (g, g_plus), and where g - lambda is not the total of the
    deficits."""
    table = sums.table
    g, g_plus = genera
    degrees, fell = _level_degrees(sums)
    if not fell and table.at_caps:
        if table.cap_sums != (g, g_plus):
            raise InternalError("ordinariness flags disagree with lambda sums")
        return None, None, *table.cap_sums, []
    ns, sizes, targets = table.orbit_n, table.orbit_size, table.orbit_target
    got = [degrees[c] for c in table.orbit_class]
    deficits = list(map(sub, targets, got))
    if min(deficits) < 0:
        i = next(i for i, x in enumerate(deficits) if x < 0)
        raise InternalError(f"degree {got[i]} exceeds target {targets[i]} at n={ns[i]} "
                            f"mod {format_coeffs(table.ctx, sums.codes)}")
    q1 = table.ctx.q - 1
    defective = [(n, size, deg, tgt) for n, size, deg, tgt, x
                 in zip(ns, sizes, got, targets, deficits) if x]
    first = defective[0][0] if defective else None
    first_plus = next((n for n, _, _, _ in defective if n % q1 == 0), None)
    weights, zeros = table.class_weight, table.class_zero
    lam = sum(map(mul, weights, degrees))
    lam_plus = sum(w * deg for w, deg, zero in zip(weights, degrees, zeros) if zero)
    if (first is None) != (lam == g) or (first_plus is None) != (lam_plus == g_plus):
        raise InternalError("ordinariness flags disagree with lambda sums")
    if g - lam != sum(map(mul, sizes, deficits)):
        raise InternalError("defect total disagrees with g - lambda")
    return first, first_plus, lam, lam_plus, defective


def first_defects(sums: RootSums) -> tuple[int | None, int | None]:
    """The least defective exponent and the least defective zero-class
    exponent, None where there is none, over the orbits at target >= 1 in
    ascending n: after the first defect only zero-class ones, up to the
    first defective.  An orbit above its class's cap is defective with no
    read; at the cap, a class under p is read once, at its least member."""
    table = sums.table
    least, caps, zeros = table.class_n, table.class_cap, table.class_zero
    first = None
    flags = [None] * len(least)  # by class: a class is read at its cap alone
    for n, c, tgt in zip(table.orbit_n, table.orbit_class, table.orbit_target):
        zero_class = zeros[c]
        if tgt <= 0 or not (zero_class or first is None):
            continue
        vanishes = tgt > caps[c] or flags[c]
        if vanishes is None:
            vanishes = flags[c] = sums.vanishes(
                range(0 if zero_class else tgt, tgt + 1), least[c])
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

"""Power sums over monic polynomials: s_i(n) = sum of a^n over monic a of
degree i, exact in F_q[T] and reduced modulo an irreducible m.

The exact sum is computed by brute-force enumeration and repeated squaring;
it is deliberately simple because it serves as the oracle for everything
else in the package; it stays here, not in oracle, because bpoly builds on
it.  Exact degrees grow like i*n, so calls are guarded by a cost estimate
q^i * ceil(log2 n) * (i*n + 1) against a configurable budget
(CostCeilingError beyond it).

The reduced sum s_mod enumerates the same monic polynomials and accumulates
residue powers by square-and-multiply (residue_pow), never leaving degree
< d.  Its calls are guarded against the same budget by mod_cost,
q^i * bit_length(n) * d^2: q^i residue powers of about bit_length(n)
products of d^2 coefficient operations each.  It serves b_poly and the
verify suites (oracle), and is the oracle of the degree engine's power
sums, which never call it.

Those come from one residue field per (q, d).  For every monic irreducible m
of degree d, A/mA = F_{q^d} by T -> theta, theta a root of m, so LogTable,
the discrete-log table of F_{q^d} = A/m0A, serves every modulus of degree d.
m0 is the least primitive polynomial of degree d (polyring.least_primitive),
so the generator is g = T and the table is one shift-and-reduce walk over
packed residues: at p = 2 one bit per F_2 coordinate, so that x*T is a shift
and an XOR, and at odd p one field per F_p coordinate, wide enough for the
widest read, a sum over every monic a of degree below d.  The table also
lists the orbits of n -> q*n mod (q^d - 1) with their digit-sum targets and
their classes under n -> p*n with their caps, as parallel lists
(LogTable.orbit_n, LogTable.class_n): the degree engine walks them as
exponent orbits, and LogTable.roots enumerates the moduli of degree d as
the minimal polynomials of the roots g^k, one per orbit of size d, with no
irreducibility test.  They are listed by one walk over the orbits of the
moduli under T -> alpha*T + c (and the Frobenius on coefficients), taken at
those roots: Zech logs multiply out one minimal polynomial per orbit, its
class under the scalings and the Frobenius takes its codes by their action
on coefficients, every member is translated by -1 once, and a translate in
no class reached yet starts one with the Taylor shift of its parent's codes;
an image root maps back to its modulus by one lookup in LogTable.reps.
The walk labels each modulus with its orbit (LogTable.first), from which
scan classifies one modulus per orbit.  Only LogTable and RootSums know a modulus by the log k of one root;
elsewhere, as in scan, a modulus is its coefficient codes.  RootSums, the
one input of the degree engine (invariants), is one modulus,
its coefficient codes and its table: it reads s_i(n) mod m at one root
theta = g^k as the sum of g^(log a(theta) * n mod (q^d - 1)) over the monic
a of degree i, one index computation per a and no polynomial multiplication,
and tests the packed sum for zero: at p = 2 the XOR of the terms, which is 0
exactly when the sum vanishes, and at odd p their integer sum, reduced mod p
field by field.  The sum is taken over the monic a whose degree lies in a
range (RootSums.packed_sum): one degree for s_i(n), and every degree up to j
for the partial sum 1 + s_1(n) + ... + s_j(n), the u^j coefficient of B_n
in the zero class, where the degree engine reads these sums and no s_i(n).
A read asks about one exponent (RootSums.vanishes), as the early-exit pass
of witness scans does once per class under p at most, or about
a batch of them over one range (RootSums.vanishing), as the full pass does
once per level and class.  Both read the logs of the range from one list,
built the first time it is asked for (RootSums.range_logs), and test the
packed sum by RootSums.is_zero.
residue_field builds that table once per scan, and shared_field keeps it
per process for scan's workers and RootSums.of.
residue_cost bounds the memory of a degree stream from (q, d) alone, checked
against the budget before m0 is searched for and on every fetch.
The budget is CARLITZ_HW_BUDGET, read by check_budget at every check.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import lru_cache

from .errors import (
    CostCeilingError,
    DomainError,
    InternalError,
    OutOfRangeError,
    _shown,
)
from .fieldcore import _BUILT_BITS, FieldCtx, make_field
from .polyring import (
    FqPoly,
    Modulus,
    field_order,
    format_coeffs,
    format_poly,
    irreducible_count,
    least_primitive,
    monic_enumerate,
    residue_pow,
)

DEFAULT_COST_CEILING = 10**9


def exact_cost(i: int, n: int, ctx: FieldCtx) -> int | str:
    """Cost estimate for s_exact, in coefficient operations; the text
    naming it where q^i would have more than 2^20 bits, which is not built
    (check_budget refuses it)."""
    rest = max(max(n - 1, 0).bit_length(), 1) * (i * n + 1)
    if i * ctx.q.bit_length() > _BUILT_BITS:
        return f"{ctx.q}^{_shown(i)} * {_shown(rest)}"
    return ctx.q**i * rest


def _check_exact_args(i, n):
    if i < 0:
        raise OutOfRangeError(f"i must be >= 0, got {i}")
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")


def mod_cost(i: int, n: int, ctx: FieldCtx, d: int) -> int:
    """Cost estimate for s_mod mod a modulus of degree d, in coefficient
    operations."""
    return ctx.q**i * max(n.bit_length(), 1) * d * d


def residue_cost(ctx: FieldCtx, d: int) -> int:
    """Cost estimate for a degree stream mod any modulus of degree d, in
    table entries: the log table holds q^d - 1 packed residues of d*e F_p
    coordinates each, and its Zech table q^d - 1 logs."""
    return (ctx.q**d - 1) * (d * ctx.e + 1)


def check_budget(what: str, cost: int | str) -> None:
    """CostCeilingError when cost exceeds CARLITZ_HW_BUDGET, read on every
    call (DEFAULT_COST_CEILING when unset), or is text naming a cost past
    2^(2^19), above every budget int() parses (4300 digits at most);
    DomainError when no integer."""
    raw = os.environ.get("CARLITZ_HW_BUDGET")
    try:
        limit = DEFAULT_COST_CEILING if raw is None else int(raw)
    except ValueError:
        raise DomainError(f"CARLITZ_HW_BUDGET must be a decimal integer, got {raw!r}") from None
    if isinstance(cost, str) or cost > limit:
        raise CostCeilingError(what, cost, limit)


def s_exact(i: int, n: int, ctx: FieldCtx) -> FqPoly:
    """The exact power sum in F_q[T], by brute force.  This is the oracle."""
    _check_exact_args(i, n)
    check_budget(f"s_exact(i={_shown(i)}, n={_shown(n)})", exact_cost(i, n, ctx))
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
            f"n={_shown(n)} outside [1, q^d-2] = [1, {m.group_order - 1}]")
    check_budget(f"s_mod(i={i}, n={_shown(n)})", mod_cost(i, n, m.ctx, m.d))
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
    """Discrete-log table of one residue field F_{q^d} = A/m0A, N = q^d - 1,
    and the enumeration of every monic irreducible of degree d by its roots.

    m0 is the codes, T^0 first, of a primitive polynomial (polyring.
    least_primitive), which fix d and N; g = T, the root of m0, generates the units: exp[k] = T^k mod m0 for 0 <= k < N (its
    inverse builds zech and const_logs and is not kept).  A residue is packed
    into one int: the F_p coordinate t of its T^0..T^(d-1) coefficient j sits
    in bit field j*e + t, shifts[j*e + t] bits up, mask wide.  At p = 2 a
    field is one bit (mask = 1): a residue is its d*e-bit coordinate vector,
    the nonzero ones are exactly 1..N, and a power sum over the exp entries
    is their XOR.  At odd p every field is wide enough for the widest read,
    the sum of a(theta)^n over every monic a of degree below d,
    (q^d - 1)/(q - 1) residues, so that a power sum takes integer additions
    only and is reduced mod p as it is read.  Each exp entry is the previous
    one times T: its low coefficients shifted up one slot, plus one of q packed
    residues c*T^d mod m0 for its top coefficient c; at p = 2 the addition is
    an XOR, and at odd p every field is then reduced mod p at once, by one
    mask-and-subtract.  The walk must meet N distinct residues and return to
    1, which certifies that T is primitive mod m0.  zech[k] is log(1 + g^k)
    (None where g^k = -1; at p = 2 the log of exp[k] ^ 1), with which sums
    of powers of g are added in the log domain, g^x + g^y = g^(x + zech[y - x]),
    as minimal_polynomial and the walk over the moduli do inline.
    const_logs[c] is the log of the constant c of F_q, which sits in the T^0
    coordinate block.
    const_codes is its inverse on F_q^*, {log c: c}, whose keys are the
    q - 1 multiples of N/(q - 1): minimal_polynomial reads each
    coefficient's code from its log there, with no packed residue decoded.
    reps[n] is the least member of the orbit of n under n -> q*n mod N, for
    0 <= n < N.  The degree engine reads the orbits but {0} and their
    classes from parallel lists, built here once.  Per orbit, in ascending
    n, its least member: orbit_n, orbit_size, orbit_class, the index of its
    class under n -> p*n, a union of orbits under q, and orbit_target,
    floor(l(n)/(q - 1)), minus one in the zero class (digits.target_degree),
    from the base-q digit sum l(n), which n -> q*n keeps, as it only
    rotates the digits.  Per class, in ascending least member: class_n, that
    member; class_cap, the least target of its orbits; class_weight, the sum
    of their sizes; and class_zero, whether it is zero-class.
    bins[cap][zero class] is (class indices, least members) of the classes
    there, ascending; cap_sums is (sum of weight*cap over all classes, over
    the zero-class ones), the lambda and lambda_plus of a modulus whose
    every class stays at its cap; and at_caps is whether every orbit's target
    is its class's cap, so that such a modulus is ordinary.

    For every monic irreducible m of degree d, A/mA is this field by
    T -> theta for a root theta of m, so one table serves every modulus of
    degree d (RootSums).  roots is {coefficient codes: k} for every such m,
    in enumeration order: the minimal polynomial of g^k, k its least member,
    per orbit of size d, and at d = 1 also T, whose root 0 is no power of g
    (k = None).  No irreducibility test is made; the count is checked
    against the necklace formula.

    The moduli are listed by one walk over their orbits under the group
    H x| {theta -> theta - c} (Rosen, GTM 210, ch. 12), of order
    e*q*(q - 1), where H = {theta -> theta^(p^i)/gamma^a : i < e,
    a < q - 1}, gamma = g^(N/(q - 1)) generating F_q^*, holds the scalings
    and the p-th power map on coefficients.  It runs at the roots, by log
    lookups.  Each orbit of moduli costs one minimal_polynomial, at the
    first root orbit of size d that the walk has not reached, and its class
    under H is entered at once: theta^(p^i)/gamma^a is
    g^(k*p^i - a*N/(q - 1)), and its codes are f with its coefficients
    raised to the p^i-th power, then scaled a times, f_i -> f_i*gamma^(i - d).
    Every member is then translated once, in the order entered, by
    theta -> theta - 1 (one Zech read); a translate in a root orbit not yet
    reached starts a new class, with the Taylor shift f(X + 1) of its
    parent's codes (additions only).  The translation and H generate the
    group, since the scalings conjugate theta -> theta - 1 into
    theta -> theta - gamma^a, so one Taylor shift is made per class under H
    but the first of each orbit.  An image root g^k names its modulus by reps[k], the
    least member of its orbit under q.  first[i] is the index
    in roots of the first modulus, in enumeration order, of the orbit of the
    i-th; first[i] <= i.
    """

    __slots__ = ("ctx", "d", "p", "order", "shifts", "mask", "exp", "zech", "const_logs",
                 "const_codes", "reps", "orbit_n", "orbit_size", "orbit_class",
                 "orbit_target", "class_n", "class_cap", "class_weight", "class_zero",
                 "bins", "cap_sums", "at_caps", "roots", "first")

    def __init__(self, ctx: FieldCtx, m0: tuple[int, ...]):
        p, e, q, d = ctx.p, ctx.e, ctx.q, len(m0) - 1
        order = q**d - 1
        # at p = 2 a coordinate is one bit and a sum of residues is their
        # XOR; at odd p every field holds the widest read, the partial sum
        # over every degree below d, (q^d - 1)/(q - 1) residues of fields at
        # most p - 1, and the 2p - 2 of the walk below
        width = 1 if p == 2 else max((q**d - 1) // (q - 1) * (p - 1), 2 * p - 2).bit_length()
        self.ctx, self.d, self.p, self.order = ctx, d, p, order
        self.shifts = shifts = range(0, width * d * e, width)
        self.mask = mask = (1 << width) - 1
        # x*T: the low d - 1 slots of e fields each move up one slot, and the
        # top slot's c turns into c*T^d = -c*(m0 - T^d), read from red
        slot, top = e * width, (d - 1) * e * width
        low = (1 << top) - 1
        red = {self.pack([c]): self.pack([ctx.mul(ctx.neg(c), f) for f in m0[:d]])
               for c in range(q)}
        exp = []
        x = 1
        if p == 2:  # a residue is its d*e coordinate bits, x*T needs no mod p
            for _ in range(order):
                exp.append(x)
                x = ((x & low) << slot) ^ red[x >> top]
        else:
            # each field of the sum is at most 2p - 2; it is >= p exactly when
            # adding 2^(width-1) - p sets its top bit, and then p is subtracted;
            # this needs 2^(width-1) >= p, which holds because
            # 2^width > 2p - 2
            assert p <= 1 << (width - 1), (p, width)
            carry = width - 1
            ones = sum(1 << s for s in shifts)  # the lowest bit of every field
            bias, tops = ones * ((1 << carry) - p), ones << carry
            for _ in range(order):
                exp.append(x)
                y = ((x & low) << slot) + red[x >> top]
                x = y - (((y + bias) & tops) >> carry) * p
        log = dict(zip(exp, range(order)))
        name = format_coeffs(ctx, m0)  # for the errors below
        if len(log) != order:
            raise InternalError(f"discrete-log table of {name} is not a bijection")
        if x != 1:
            raise InternalError(f"T^{order} != 1 in the discrete-log table of {name}")
        self.exp = exp
        # 1 + g^k changes only the T^0 coordinate of the F_p prime field
        self.zech = [log.get(x + 1 - p if (x & mask) == p - 1 else x + 1) for x in exp]
        self.const_logs = [None] + [log[self.pack([c])] for c in range(1, q)]
        self.const_codes = dict(zip(self.const_logs[1:], range(1, q)))
        # n -> p*n raises a residue to its p-th power: the absolute Frobenius
        frob = _orbit_reps(p, order)
        self.reps = reps = frob if q == p else _orbit_reps(q, order)
        # digit sums l(n) = l(n mod b) + l(n div b), from a table below
        # b = q^ceil(d/2) > n div b
        b = q ** -(-d // 2)
        ells = [0] * b
        for n in range(1, b):
            ells[n] = ells[n // q] + n % q
        # an orbit's least member is its first in n: the keys come ascending
        q1 = q - 1
        sizes = Counter(reps)
        del sizes[0]  # n = 0 is no exponent
        self.orbit_n = ns = list(sizes)
        self.orbit_size = list(sizes.values())
        self.orbit_target = targets = [(ells[n % b] + ells[n // b]) // q1 - (n % q1 == 0)
                                       for n in ns]
        # a class under p is indexed in the order of its least member, the n
        # of its first orbit under q
        index = {}
        self.orbit_class = classes = [index.setdefault(frob[n], len(index)) for n in ns]
        self.class_n = least = list(index)
        self.class_zero = zeros = [r % q1 == 0 for r in least]
        caps, weights = [d] * len(least), [0] * len(least)  # a target is below d
        for c, size, tgt in zip(classes, self.orbit_size, targets):
            weights[c] += size
            if caps[c] > tgt:
                caps[c] = tgt
        self.class_cap, self.class_weight = caps, weights
        self.at_caps = targets == [caps[c] for c in classes]
        # bins[cap][zero class]: the classes there, and their least members
        self.bins = bins = [(([], []), ([], [])) for _ in range(d)]
        for c, (r, cap, zero) in enumerate(zip(least, caps, zeros)):
            cs, rs = bins[cap][zero]
            cs.append(c)
            rs.append(r)
        self.cap_sums = (sum(w * cap for w, cap in zip(weights, caps)),
                         sum(w * cap for w, cap, zero in zip(weights, caps, zeros) if zero))
        listed = self._walk_moduli()
        # enumeration order: ascending code, the T^0 coefficient fastest
        listed.sort(key=lambda root: root[0][::-1])
        self.roots = roots = {codes: k for codes, k, _ in listed}
        expected = irreducible_count(ctx, d)
        if not len(roots) == len(listed) == expected:
            raise InternalError(f"{len(listed)} roots with {len(roots)} minimal "
                                f"polynomials != necklace value {expected}")
        heads = {}
        self.first = [heads.setdefault(label, i) for i, (_, _, label) in enumerate(listed)]

    def pack(self, coeffs) -> int:
        """The packed residue with these F_q codes, T^0 first."""
        ctx, shifts = self.ctx, self.shifts
        return sum(x << shifts[j * ctx.e + t]
                   for j, c in enumerate(coeffs) for t, x in enumerate(ctx.decode(c)))

    def minimal_polynomial(self, k: int) -> tuple[int, ...]:
        """F_q codes, T^0 first, of prod_{j<d} (X - theta^(q^j)), theta = g^k:
        for k in a Frobenius orbit of size d, the minimal polynomial of theta."""
        order, p, q, zech = self.order, self.p, self.ctx.q, self.zech
        minus = self.const_logs[p - 1]  # the log of -1
        poly, r = [0], k  # coefficient logs, T^0 first: the polynomial 1
        for _ in range(self.d):
            root = (r + minus) % order  # poly * (X - theta^(q^j))
            new, x = [], None  # x: the coefficient below y, None below T^0
            for y in poly + [None]:  # g^x + g^(y + root), by zech
                if x is None or y is None:
                    new.append(x if y is None else (y + root) % order)
                else:
                    z = zech[(y + root - x) % order]
                    new.append(None if z is None else (x + z) % order)
                x = y
            poly, r = new, r * q % order
        codes = self.const_codes
        try:  # g^c lies in F_q exactly when c is the log of a constant
            return tuple([0 if c is None else codes[c] for c in poly])
        except KeyError:
            raise InternalError(f"minimal polynomial of g^{k} has a "
                                f"coefficient outside F_{q}") from None

    def _walk_moduli(self) -> list[tuple]:
        """(codes, k, label) for every modulus of degree d, in the order the
        walk of the class docstring reaches them; label is the log k at
        which the walk entered the modulus's orbit, and k = None is the root
        0 of T (d = 1)."""
        ctx, d, p, order = self.ctx, self.d, self.p, self.order
        e, q = ctx.e, ctx.q
        reps, zech, codes = self.reps, self.zech, self.const_codes
        add, mul = ctx.add, ctx.mul
        minus_one = self.const_logs[p - 1]
        step = order // (q - 1)  # the log of gamma
        # f_i*gamma^(i - d) by row i, and the p-th powers, looked up by code
        scale = [[mul(c, codes[(i - d) * step % order]) for c in range(q)]
                 for i in range(d)]
        frob = [0] + [codes[c * p % order] for c in self.const_logs[1:]]
        # the codes of each root orbit of size d, once reached, in ascending n:
        # at d = 1 also that of 0, as g^0 = 1 is the root of T - 1
        found = dict.fromkeys([0] * (d == 1) + [
            n for n, size in zip(self.orbit_n, self.orbit_size) if size == d])
        if d == 1:
            found[None] = None  # T, whose root 0 is no power of g

        def orbit_of(k):  # the root orbit of g^k, named by its least member
            j = None if k is None else reps[k]
            if j not in found:
                raise InternalError(f"image root g^{k} lies in no orbit of "
                                    f"size {d} under k -> {q}*k")
            return j

        def close(k, f):
            """Enter the root orbit of every theta^(p^i)/gamma^a, theta = g^k
            with codes f, i < e and a < q - 1, with codes scale^a(frob^i(f)):
            f(gamma*X)/gamma^d has the root theta/gamma, and f with its
            coefficients to the p-th power the root theta^p.  Both fix 0."""
            for i in range(e):
                g = f
                for a in range(q - 1):
                    j = orbit_of(None if k is None else (k * p**i - a * step) % order)
                    if found[j] is None:
                        found[j] = g
                        orbit.append(j)
                    g = tuple([row[c] for row, c in zip(scale, g)] + [1])
                f = tuple([frob[c] for c in f])

        group = e * q * (q - 1)
        listed = []
        for k0 in found:  # only codes change, so the keys may be walked
            if found[k0] is not None:
                continue
            orbit = []
            close(k0, self.minimal_polynomial(k0))
            for k in orbit:  # theta -> theta - 1, once per member as entered
                if k is None:  # 0 - 1 = -1
                    image = minus_one
                else:  # g^k - 1 = g^(k + zech[minus_one - k])
                    z = zech[(minus_one - k) % order]
                    image = None if z is None else (k + z) % order
                if found[orbit_of(image)] is None:
                    # f(X + 1), whose root is theta - 1: a Taylor shift
                    f = list(found[k])
                    for i in range(d):
                        for j in range(d - 1, i - 1, -1):
                            f[j] = add(f[j], f[j + 1])
                    close(image, tuple(f))
            if group % len(orbit):
                raise InternalError(
                    f"an orbit of {len(orbit)} moduli does not divide the group order {group}")
            listed.extend((found[j], j, k0) for j in orbit)
        return listed


class RootSums:
    """Whether a sum of power sums s_i(n) mod m vanishes, read at a root
    theta = g^k of m in a LogTable (k = None for theta = 0, the root of
    m = T).

    Under A/mA = F_{q^d}, T -> theta, s_i(n) mod m is the sum of a(theta)^n
    over the monic a of degree i, and a(theta)^n = g^(log a(theta) * n mod N).
    Only the logs of monic a(theta) are kept, computed for one degree j the
    first time it is asked for, from degree j - 1 alone: a = T*b + c with
    b monic of degree j - 1, so with x = k + log b(theta), log a(theta) is x
    at c = 0 and x + zech[const_logs[c] - x] otherwise.
    A read sums over the monic a whose degree lies in a range: one degree
    for s_i(n), and range(j + 1) for the partial sum 1 + s_1 + ... + s_j,
    whose degree-0 term is exp[0], the packed 1.  Whether a sum vanishes
    does not depend on which conjugate of theta is used; it is read on the
    packed sum: at p = 2 the XOR of the terms, the coordinate bits of the
    sum, which vanishes when it is 0, and at odd p their integer sum,
    reduced field by field mod p up to the first nonzero field (is_zero).
    vanishes reads one exponent, and vanishing a batch, over one range of
    degrees, from its list of logs, kept (range_logs).  A RootSums
    is made from the coefficient codes of m, which table.roots maps to k;
    the field, d and N are the table's.
    """

    __slots__ = ("table", "k", "codes", "_logs", "_ranges")

    def __init__(self, table: LogTable, codes: tuple[int, ...]):
        self.table, self.k, self.codes = table, table.roots[codes], codes
        self._logs = [[0]]  # the monic a of degree 0 is 1, for any theta
        self._ranges = {}

    @classmethod
    def of(cls, m: Modulus) -> "RootSums":
        """The sums of one modulus m at its root in the field of its (q, d)
        kept by this process (shared_field), its residue_cost checked on every call."""
        ctx = m.ctx
        check_budget(f"degree stream mod {format_poly(m.poly)}", residue_cost(ctx, m.d))
        return cls(shared_field(ctx.p, ctx.e, ctx.field_modulus, m.d), m.poly.coeffs)

    def logs(self, i: int) -> list[int]:
        """log a(theta) for the monic a of degree i, in no fixed order: only
        sums read them."""
        logs, table, k = self._logs, self.table, self.k
        order, zech, const = table.order, table.zech, table.const_logs[1:]
        while len(logs) <= i:
            # a = T*b + c, b monic of degree j - 1: with x = k + log b(theta),
            # log a(theta) is x at c = 0 and x + zech[log c - x] otherwise
            xs = [(k + lb) % order for lb in logs[-1]]
            logs.append(xs + [(x + zech[(lc - x) % order]) % order
                              for x in xs for lc in const])
        return logs[i]

    def range_logs(self, degrees: range) -> list[int]:
        """log a(theta) for the monic a whose degree lies in degrees, one
        list per range, built the first time it is asked for."""
        logs = self._ranges.get(degrees)
        if logs is None:
            logs = self._ranges[degrees] = [la for i in degrees for la in self.logs(i)]
        return logs

    def packed_sum(self, degrees: range, n: int) -> int:
        """The sum of a(theta)^n over the monic a whose degree lies in
        degrees, packed: at p = 2 the XOR of the terms, its coordinate bits,
        each term XORed in as it is read; at odd p their integer sum, its
        coordinates not yet reduced mod p.  range(i, i + 1) is s_i(n) mod m,
        and range(j + 1) the partial sum 1 + s_1(n) + ... + s_j(n)."""
        table = self.table
        exp, order = table.exp, table.order
        logs = self.range_logs(degrees)
        if table.p == 2:
            x = 0
            for la in logs:
                x ^= exp[la * n % order]
            return x
        return sum([exp[la * n % order] for la in logs])

    def vanishing(self, degrees: range, ns) -> list[bool]:
        """[vanishes(degrees, n) for n in ns], in one gather."""
        # its own loop: a packed_sum per n made the full pass 2 % slower
        table = self.table
        exp, order = table.exp, table.order
        logs = self.range_logs(degrees)
        if table.p == 2:
            sums = []
            for n in ns:
                x = 0
                for la in logs:
                    x ^= exp[la * n % order]
                sums.append(x)
        else:
            sums = [sum([exp[la * n % order] for la in logs]) for n in ns]
        return list(map(self.is_zero, sums))

    def vanishes(self, degrees: range, n: int) -> bool:
        """packed_sum(degrees, n) == 0 mod m, for degrees within [0, d - 1]
        and 1 <= n < q^d - 1."""
        return self.is_zero(self.packed_sum(degrees, n))

    def is_zero(self, x: int) -> bool:
        """Whether the packed sum x is 0 mod m: at p = 2 x is the coordinate
        vector, at odd p each field is reduced mod p in turn."""
        table = self.table
        if table.p == 2:
            return not x
        p, mask = table.p, table.mask
        for s in table.shifts:
            if (x >> s & mask) % p:
                return False
        return True


def residue_field(ctx: FieldCtx, d: int) -> LogTable:
    """The residue field of every monic irreducible of degree d, built anew:
    the LogTable on the least primitive m0, with the roots of every modulus;
    the q^d limit and budget are checked from (q, d), before m0 is sought."""
    field_order(ctx, d)
    check_budget(f"degree {d} residue field over F_{ctx.q}", residue_cost(ctx, d))
    return LogTable(ctx, least_primitive(ctx, d))


@lru_cache(maxsize=2)
def shared_field(p: int, e: int, field_modulus, d: int):
    """residue_field at make_field(p, e, field_modulus), built once per
    process."""
    ctx = make_field(p, e, field_modulus)
    return residue_field(ctx, d)


def _orbit_reps(mult: int, order: int) -> list[int]:
    """reps[n] = the least member of the orbit of n under n -> mult*n mod
    order, for 0 <= n < order and mult prime to order."""
    reps = [None] * order
    for n in range(order):
        if reps[n] is None:  # no smaller n reached it: n is its orbit's least
            r = n
            while reps[r] is None:
                reps[r] = n
                r = r * mult % order
    return reps

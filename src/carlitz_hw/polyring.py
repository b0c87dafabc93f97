"""The polynomial ring A = F_q[T] and the residue fields A/mA.

An FqPoly stores ascending coefficient codes (coeffs[i] multiplies T^i) with
the trailing zeros stripped, so the empty tuple is the zero polynomial and
deg f = len(coeffs) - 1 otherwise; deg 0 = -inf.  Values are immutable and
the usual operators are overloaded, a ** n being the unreduced power.

There is one product mod f: mulmod, on the reduction_rows T^(k+j) mod f of
a monic f, irreducible or not.  is_irreducible (Ben-Or's test) and
residue_pow, the exponentiation in A/mA, take powers by fieldcore.power over
it; a Modulus keeps that product for its m.  residue_pow computes the
reduced power sums of s_mod, which bpoly and the oracle module read, and
stays the oracle of the degree engine, which reads the discrete-log table
powersums.LogTable and never calls it.

Enumeration orders are part of the contract: monic polynomials of degree i
are produced by ascending coefficient code with a_0 varying fastest, and
irreducible_enumerate lists moduli in that same order.  irreducible_enumerate
tests every monic polynomial with is_irreducible and is the oracle of the
root enumeration that scan uses (powersums.LogTable.roots).
least_irreducible finds the first modulus of a degree, the default field
polynomial of make_field.  least_primitive finds the codes of the first at
which T has order q^d - 1, which proves it irreducible; the table takes them.

Text grammar (CLI and files): '+'-separated terms  c*T^k | c*T | T^k | T | c
with c an F_q literal (the '*' may be omitted), or alternatively a single
comma-separated ascending coefficient list  c0,c1,...,cd.  Whitespace is
ignored.  format_poly emits descending terms with explicit '*', and
format_coeffs the same from bare coefficient codes.
"""

from __future__ import annotations

import math
import re
from functools import partial, reduce

from .errors import (
    DegreeTooSmallError,
    DomainError,
    InternalError,
    OutOfRangeError,
    OverflowLimitError,
    PolyParseError,
    ReducibleModulusError,
)
from .fieldcore import _BUILT_BITS, DEFAULT_LIMIT, FieldCtx, checked_power, power

NEG_INF = float("-inf")

# below this many total coefficients schoolbook beats the numpy round-trip
_NUMPY_MIN_TERMS = 64


class FqPoly:
    """Element of F_q[T]; immutable, normalized, hashable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=(), check=True):
        cs = list(coeffs)
        if check:
            q = ctx.q
            for c in cs:
                if not isinstance(c, int) or not 0 <= c < q:
                    raise DomainError(f"{c!r} is not an element code of F_{q}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FqPoly is immutable")

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, (), check=False)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,), check=False)

    @classmethod
    def gen(cls, ctx):
        """The polynomial T."""
        return cls(ctx, (0, 1), check=False)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _compat(self, other):
        if not isinstance(other, FqPoly):
            raise TypeError(f"FqPoly expected, got {type(other).__name__}")
        if not (self.ctx is other.ctx or self.ctx == other.ctx):
            raise DomainError("operands belong to different fields")

    def __add__(self, other):
        self._compat(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = ctx.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return FqPoly(ctx, out, check=False)

    def __neg__(self):
        ctx = self.ctx
        neg = ctx.neg
        return FqPoly(ctx, [neg(c) for c in self.coeffs], check=False)

    def __sub__(self, other):
        self._compat(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        sub = ctx.sub
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return FqPoly(ctx, out, check=False)

    def __mul__(self, other):
        self._compat(other)
        return FqPoly(self.ctx, _product(self.ctx, self.coeffs, other.coeffs), check=False)

    def scale(self, c: int):
        ctx = self.ctx
        mul = ctx.mul
        return FqPoly(ctx, [mul(c, x) for x in self.coeffs], check=False)

    def __divmod__(self, other):
        self._compat(other)
        ctx = self.ctx
        b = other.coeffs
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        db = len(b) - 1
        if len(r) - 1 < db:
            return FqPoly.zero(ctx), self
        inv_lead = ctx.inv(b[-1])
        quot = [0] * (len(r) - db)
        mul, sub = ctx.mul, ctx.sub
        for top in range(len(r) - 1, db - 1, -1):
            c = r[top]
            if c:
                f = mul(c, inv_lead)
                quot[top - db] = f
                for j in range(db + 1):
                    r[top - db + j] = sub(r[top - db + j], mul(f, b[j]))
        return FqPoly(ctx, quot, check=False), FqPoly(ctx, r, check=False)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        """self^n in F_q[T], unreduced; powers mod f are residue_pow's."""
        if n < 0:
            raise DomainError("negative exponent for polynomial power")
        return power(self, n, FqPoly.__mul__, FqPoly.one(self.ctx))

    def __eq__(self, other):
        return (isinstance(other, FqPoly) and self.coeffs == other.coeffs
                and self.ctx == other.ctx)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"FqPoly({format_poly(self)!r} over F_{self.ctx.q})"


def gcd(a: FqPoly, b: FqPoly) -> FqPoly:
    """Monic greatest common divisor."""
    while b:
        a, b = b, a % b
    if a and a.coeffs[-1] != 1:
        a = a.scale(a.ctx.inv(a.coeffs[-1]))
    return a


# ---------------------------------------------------------------------------
# parsing / formatting

_TERM_RE = re.compile(
    r"(?P<coef>\[[0-9,]*\]|\d+)?(?:\*?(?P<T>T)(?:\^(?P<exp>\d+))?)?")


def _split_top(text, sep):
    parts, starts = [], []
    depth = 0
    cur_start = 0
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise PolyParseError("unbalanced ']'", text, i)
        elif ch == sep and depth == 0:
            parts.append(text[cur_start:i])
            starts.append(cur_start)
            cur_start = i + 1
    if depth != 0:
        raise PolyParseError("unbalanced '['", text, len(text))
    parts.append(text[cur_start:])
    starts.append(cur_start)
    return parts, starts


def parse_poly(text: str, ctx: FieldCtx) -> FqPoly:
    """Parse the term grammar or the compact coefficient-list form."""
    stripped = "".join(text.split())
    if not stripped:
        raise PolyParseError("empty polynomial", text, 0)
    if "T" not in stripped and _split_top(stripped, ",")[0][1:]:
        # compact form: comma-separated ascending F_q literals
        parts, _ = _split_top(stripped, ",")
        return FqPoly(ctx, [ctx.parse_elem(part) for part in parts], check=False)
    terms, starts = _split_top(stripped, "+")
    coeffs = {}
    for term, at in zip(terms, starts):
        m = _TERM_RE.fullmatch(term)
        if m is None or (m.group("coef") is None and m.group("T") is None):
            raise PolyParseError("expected term c*T^k, c*T, T^k, T or c",
                                 stripped, at)
        c = ctx.parse_elem(m.group("coef")) if m.group("coef") is not None else 1
        if m.group("T") is None:
            k = 0
        else:
            k = _exponent(m.group("exp")) if m.group("exp") is not None else 1
        coeffs[k] = ctx.add(coeffs.get(k, 0), c)
    if max(coeffs) * ctx.q.bit_length() > _BUILT_BITS:  # refused before the list is built
        checked_power("q^d - 1", ctx.q, max(coeffs), minus_one=True)  # as Modulus would
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return FqPoly(ctx, out, check=False)


def _exponent(digits: str) -> int:
    """The exponent these decimal digits write, refused above DEFAULT_LIMIT
    before a coefficient list that long is built; past 30 digits it is
    named by its digit count unconverted, as int() refuses over 4300."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > 30:
        raise OverflowLimitError("exponent", f"<{len(digits)}-digit integer>",
                                 DEFAULT_LIMIT)
    k = int(digits)
    if k > DEFAULT_LIMIT:
        raise OverflowLimitError("exponent", k, DEFAULT_LIMIT)
    return k


def format_poly(f: FqPoly) -> str:
    """Descending human form; round-trips through parse_poly."""
    return format_coeffs(f.ctx, f.coeffs)


def format_coeffs(ctx: FieldCtx, coeffs) -> str:
    """format_poly of the polynomial with these F_q codes, T^0 first and no
    trailing zero, without building it."""
    if not coeffs:
        return "0"
    name = ctx.format_elem
    terms = []
    for k in range(len(coeffs) - 1, 0, -1):
        c = coeffs[k]
        if c:
            t = "T" if k == 1 else f"T^{k}"
            terms.append(t if c == 1 else f"{name(c)}*{t}")
    if coeffs[0]:
        terms.append(name(coeffs[0]))
    return "+".join(terms)


# ---------------------------------------------------------------------------
# enumeration and irreducibility

def monic_enumerate(ctx: FieldCtx, i: int):
    """All q^i monic polynomials of degree i, ascending code order (a_0 fastest)."""
    if i < 0:
        raise OutOfRangeError(f"degree must be >= 0, got {i}")
    q = ctx.q
    for idx in range(checked_power("q^i", q, i)):
        coeffs = [(idx // q**j) % q for j in range(i)] + [1]
        yield FqPoly(ctx, coeffs, check=False)


def reduction_rows(ctx: FieldCtx, coeffs) -> tuple[tuple[int, ...], ...]:
    """T^(k+j) mod f for j = 0..k-2 (one row at k = 1), as length-k code
    tuples, for the monic f of degree k >= 1 with these codes, T^0 first."""
    k = len(coeffs) - 1
    neg, mul, add = ctx.neg, ctx.mul, ctx.add
    tk = [neg(c) for c in coeffs[:k]]
    rows = [tuple(tk)]
    cur = list(tk)
    for _ in range(k - 2):
        head, cur = cur[-1], [0] + cur[:-1]
        if head:
            for i in range(k):
                cur[i] = add(cur[i], mul(head, tk[i]))
        rows.append(tuple(cur))
    return tuple(rows)


def _product(ctx: FieldCtx, a, b) -> list[int]:
    """The codes of a*b in F_q[T], unreduced: by numpy convolution at e = 1
    for long operands, by the schoolbook loop otherwise."""
    if not a or not b:
        return []
    if (ctx.e == 1 and len(a) + len(b) >= _NUMPY_MIN_TERMS
            and (ctx.p - 1) ** 2 * min(len(a), len(b)) < 2**62):
        import numpy as np  # here, not at the top: most runs never get here
        out = np.convolve(np.asarray(a, dtype=np.int64),
                          np.asarray(b, dtype=np.int64)) % ctx.p
        return out.tolist()
    out = [0] * (len(a) + len(b) - 1)
    mul, add = ctx.mul, ctx.add
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return out


def mulmod(ctx: FieldCtx, rows, a, b) -> list[int]:
    """a*b mod f, f monic of degree k with these reduction_rows, for code
    sequences a, b of length <= k; the result may end in zeros."""
    raw = _product(ctx, a, b)
    k = len(rows[0])
    if len(raw) <= k:
        return raw
    add, mul = ctx.add, ctx.mul
    out = raw[:k]
    for top in range(k, len(raw)):
        c = raw[top]
        if c:
            red = rows[top - k]
            for i in range(k):
                out[i] = add(out[i], mul(c, red[i]))
    return out


def is_irreducible(f: FqPoly) -> bool:
    """Ben-Or's test over F_q: f of degree k is irreducible iff
    gcd(T^(q^i) - T, f) = 1 for 1 <= i <= k/2, as T^(q^i) - T is the product
    of the monic irreducibles of degree dividing i and a reducible f has a
    factor of degree at most k/2; the walk stops at the first i that shows
    one.  The powers run on mulmod, mod f over its leading coefficient."""
    k = len(f.coeffs) - 1
    if k < 1:
        raise DegreeTooSmallError("irreducibility needs degree >= 1")
    ctx = f.ctx
    monic = f.scale(ctx.inv(f.coeffs[-1]))
    mul = partial(mulmod, ctx, reduction_rows(ctx, monic.coeffs))
    x = t = FqPoly.gen(ctx) % monic
    for _ in range(k // 2):
        x = FqPoly(ctx, power(x.coeffs, ctx.q, mul, [1]), check=False)
        if gcd(x - t, f).degree != 0:
            return False
    return True


def _prime_divisors(k):
    out = []
    d = 2
    while d * d <= k:
        if k % d == 0:
            out.append(d)
            while k % d == 0:
                k //= d
        d += 1
    if k > 1:
        out.append(k)
    return out


def _mobius(n):
    """mu(n): (-1)^r when n is a product of r distinct primes, else 0."""
    primes = _prime_divisors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


def irreducible_count(ctx: FieldCtx, d: int) -> int:
    """Number of monic irreducible degree-d polynomials (necklace formula)."""
    total = sum(_mobius(r) * ctx.q ** (d // r) for r in range(1, d + 1) if d % r == 0)
    return total // d


class Modulus:
    """A monic irreducible m of degree d, with the product of A/mA."""

    __slots__ = ("poly", "ctx", "d", "group_order", "_mulmod")

    def __init__(self, poly: FqPoly):
        if not poly.is_monic():
            raise DomainError(f"modulus must be monic: {format_poly(poly)}")
        d = len(poly.coeffs) - 1
        ctx = poly.ctx
        # 0 at d = 0, which the next test rejects; checked before the
        # irreducibility test, whose cost grows with d
        order = checked_power("q^d - 1", ctx.q, d, minus_one=True)
        if d < 1 or not is_irreducible(poly):
            raise ReducibleModulusError(f"modulus is not irreducible: {format_poly(poly)}")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "group_order", order)
        # _mulmod(a, b) is a*b mod m: mulmod on the reduction rows of m
        object.__setattr__(self, "_mulmod",
                           partial(mulmod, ctx, reduction_rows(ctx, poly.coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Modulus is immutable")

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"Modulus({format_poly(self.poly)!r} over F_{self.ctx.q})"


def _monic_irreducibles(ctx: FieldCtx, d: int):
    """Each monic irreducible of degree d as a Modulus, in enumeration order,
    by testing the monic polynomials one at a time (through Modulus itself)."""
    if d < 1:
        raise OutOfRangeError(f"degree must be >= 1, got {d}")
    for f in monic_enumerate(ctx, d):
        try:
            m = Modulus(f)
        except ReducibleModulusError:
            continue
        yield m


def irreducible_enumerate(ctx: FieldCtx, d: int) -> list[Modulus]:
    """All monic irreducible degree-d moduli in enumeration order, by testing
    every monic polynomial once; the length is cross-checked against the
    necklace formula.  scan enumerates its moduli as minimal polynomials
    instead (powersums.LogTable.roots); this is their oracle.
    """
    out = list(_monic_irreducibles(ctx, d))
    expected = irreducible_count(ctx, d)
    if len(out) != expected:
        raise InternalError(
            f"irreducible count {len(out)} != necklace value {expected}")
    return out


def least_irreducible(ctx: FieldCtx, d: int) -> Modulus:
    """The first monic irreducible of degree d in enumeration order, found by
    testing monic polynomials in that order until the first hit."""
    m = next(_monic_irreducibles(ctx, d), None)
    if m is None:
        raise InternalError(f"no monic irreducible of degree {d} over F_{ctx.q}")
    return m


def field_order(ctx: FieldCtx, d: int) -> int:
    """q^d, the size of the residue fields of degree d >= 1, within DEFAULT_LIMIT."""
    if d < 1:
        raise OutOfRangeError(f"d must be >= 1, got {d}")
    return checked_power("q^d", ctx.q, d)


def least_primitive(ctx: FieldCtx, d: int) -> tuple[int, ...]:
    """The codes of the first monic f of degree d in enumeration order at
    which T has order N = q^d - 1: T^N = 1 and T^(N/r) != 1 for prime r | N.

    Such an f is irreducible with no test of its own: the powers of T are
    then N distinct units of F_q[T]/f, a ring of q^d elements, so every
    nonzero element is a unit and the ring is a field.  (-1)^d f(0) is the
    norm T^(N/(q-1)) of the root T, so it must be primitive in F_q; that
    filter skips most candidates when q > 2.  At d > 1 no power of T is
    taken at a binomial T^d + a, where T^d is in F_q and T has order
    dividing d(q - 1) < N, nor at an f with a root c in F_q^*, which T - c
    divides.  At d = 1 the answer is T - a with a primitive (T itself is no
    unit mod T).
    """
    q = ctx.q
    order = field_order(ctx, d) - 1  # checked before q^d - 1 is factored
    cofactors = [order // r for r in _prime_divisors(order)]
    units = [(q - 1) // r for r in _prime_divisors(q - 1)]
    primitive = {c for c in range(1, q) if all(ctx.pow(c, k) != 1 for k in units)}

    def is_one(x):  # mulmod results may end in zeros
        return x[:1] == [1] and not any(x[1:])

    # f(c) = sum of a_j * c^j, from the powers of every c in F_q^*
    powers = [[ctx.pow(c, j) for j in range(d + 1)] for c in range(1, q)]

    def has_root(coeffs):
        return any(reduce(ctx.add, map(ctx.mul, coeffs, pw)) == 0 for pw in powers)

    for f in monic_enumerate(ctx, d):
        f0 = f.coeffs[0]
        if (f0 if d % 2 == 0 else ctx.neg(f0)) not in primitive:
            continue
        if d > 1 and (not any(f.coeffs[1:d]) or has_root(f.coeffs)):
            continue
        mul = partial(mulmod, ctx, reduction_rows(ctx, f.coeffs))
        t = [0, 1] if d > 1 else [ctx.neg(f0)]
        if (is_one(power(t, order, mul, [1]))
                and not any(is_one(power(t, k, mul, [1])) for k in cofactors)):
            return f.coeffs
    raise InternalError(f"no primitive polynomial of degree {d} over F_{q}")


def residue_pow(a: FqPoly, n: int, m: Modulus) -> FqPoly:
    """a^n mod m, by power over the product mod m."""
    if n < 0:
        raise OutOfRangeError(f"exponent must be >= 0, got {n}")
    if n > DEFAULT_LIMIT:
        raise OverflowLimitError("exponent", n, DEFAULT_LIMIT)
    return FqPoly(m.ctx, power((a % m.poly).coeffs, n, m._mulmod, [1]), check=False)

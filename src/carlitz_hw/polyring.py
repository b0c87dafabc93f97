"""The polynomial ring A = F_q[T] and the residue fields A/mA.

An FqPoly stores ascending coefficient codes (coeffs[i] multiplies T^i) with
the trailing zeros stripped, so the empty tuple is the zero polynomial and
deg f = len(coeffs) - 1 otherwise; deg 0 = -inf.  Values are immutable and
the usual operators are overloaded.  A Modulus wraps a monic irreducible m
of degree d together with the reduction tables used by residue_pow, the
square-and-multiply exponentiation in A/mA.  residue_pow computes every
reduced power sum of s_mod, which answers the first queries of each degree
stream; long degree streams move to the discrete-log table of
powersums.LogTable, for which residue_pow stays the oracle.

Enumeration orders are part of the contract: monic polynomials of degree i
are produced by ascending coefficient code with a_0 varying fastest, and
irreducible_enumerate lists moduli in that same order.

Text grammar (CLI and files): '+'-separated terms  c*T^k | c*T | T^k | T | c
with c an F_q literal (the '*' may be omitted), or alternatively a single
comma-separated ascending coefficient list  c0,c1,...,cd.  Whitespace is
ignored.  format_poly emits descending terms with explicit '*'.
"""

from __future__ import annotations

import re

from .errors import (
    DegreeTooSmallError,
    DomainError,
    InternalError,
    OutOfRangeError,
    OverflowLimitError,
    PolyParseError,
    ReducibleModulusError,
)
from .fieldcore import FieldCtx

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

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (ctx.validate_elem(c),), check=False)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, x: int) -> int:
        """Value at the field element with code x (Horner)."""
        ctx = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, x), c)
        return acc

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
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return FqPoly(ctx, (), check=False)
        if (ctx.e == 1 and len(a) + len(b) >= _NUMPY_MIN_TERMS
                and (ctx.p - 1) ** 2 * min(len(a), len(b)) < 2**62):
            import numpy as np  # here, not at the top: most runs never get here
            out = np.convolve(np.asarray(a, dtype=np.int64),
                              np.asarray(b, dtype=np.int64)) % ctx.p
            return FqPoly(ctx, out.tolist(), check=False)
        out = [0] * (len(a) + len(b) - 1)
        mul, add = ctx.mul, ctx.add
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return FqPoly(ctx, out, check=False)

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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int, mod=None):
        """self^n by square-and-multiply; pow(a, n, f) reduces mod a nonzero
        f after every product (no irreducibility assumed)."""
        if n < 0:
            raise DomainError("negative exponent for polynomial power")

        def reduced(f):
            return f if mod is None else f % mod

        result, base = reduced(FqPoly.one(self.ctx)), reduced(self)
        while n > 0:
            if n & 1:
                result = reduced(result * base)
            n >>= 1
            if n:
                base = reduced(base * base)
        return result

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
            k = int(m.group("exp")) if m.group("exp") is not None else 1
        coeffs[k] = ctx.add(coeffs.get(k, 0), c)
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return FqPoly(ctx, out, check=False)


def format_poly(f: FqPoly) -> str:
    """Descending human form; round-trips through parse_poly."""
    if not f.coeffs:
        return "0"
    ctx = f.ctx
    terms = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        t = "" if k == 0 else ("T" if k == 1 else f"T^{k}")
        if k == 0:
            terms.append(ctx.format_elem(c))
        elif c == 1:
            terms.append(t)
        else:
            terms.append(f"{ctx.format_elem(c)}*{t}")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# enumeration and irreducibility

def monic_enumerate(ctx: FieldCtx, i: int):
    """All q^i monic polynomials of degree i, ascending code order (a_0 fastest)."""
    if i < 0:
        raise OutOfRangeError(f"degree must be >= 0, got {i}")
    q = ctx.q
    total = q**i
    if total > ctx.limit:
        raise OverflowLimitError("q^i", total, ctx.limit)
    for idx in range(total):
        coeffs = [(idx // q**j) % q for j in range(i)] + [1]
        yield FqPoly(ctx, coeffs, check=False)


def is_irreducible(f: FqPoly) -> bool:
    """Frobenius/gcd irreducibility test over F_q.

    f of degree k is irreducible iff T^(q^k) = T mod f and
    gcd(T^(q^(k/r)) - T, f) = 1 for every prime r dividing k.
    """
    k = len(f.coeffs) - 1
    if k < 1:
        raise DegreeTooSmallError("irreducibility needs degree >= 1")
    ctx = f.ctx
    t = FqPoly.gen(ctx) % f
    tq = [t]
    for _ in range(k):
        tq.append(pow(tq[-1], ctx.q, f))
    if tq[k] != t:
        return False
    for r in _prime_divisors(k):
        if gcd(tq[k // r] - t, f).degree != 0:
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
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def irreducible_count(ctx: FieldCtx, d: int) -> int:
    """Number of monic irreducible degree-d polynomials (necklace formula)."""
    total = sum(_mobius(r) * ctx.q ** (d // r) for r in range(1, d + 1) if d % r == 0)
    return total // d


class Modulus:
    """A monic irreducible m of degree d, with reduction tables for A/mA."""

    __slots__ = ("poly", "ctx", "d", "group_order", "_tpow")

    def __init__(self, poly: FqPoly):
        if not poly.is_monic():
            raise DomainError(f"modulus must be monic: {format_poly(poly)}")
        d = len(poly.coeffs) - 1
        if d < 1 or not is_irreducible(poly):
            raise ReducibleModulusError(f"modulus is not irreducible: {format_poly(poly)}")
        self._set_up(poly, d)

    @classmethod
    def _trusted(cls, poly: FqPoly) -> "Modulus":
        """A Modulus for a monic irreducible poly that irreducible_enumerate
        has already accepted: the reduction tables without the second test."""
        m = cls.__new__(cls)
        m._set_up(poly, len(poly.coeffs) - 1)
        return m

    def _set_up(self, poly, d):
        ctx = poly.ctx
        order = ctx.q**d - 1
        if order > ctx.limit:
            raise OverflowLimitError("q^d - 1", order, ctx.limit)
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "group_order", order)
        # T^(d+j) mod m for j = 0..d-2, as length-d code vectors
        neg = ctx.neg
        td = [neg(c) for c in poly.coeffs[:d]]
        tpow = [tuple(td)]
        cur = list(td)
        mul, add = ctx.mul, ctx.add
        for _ in range(d - 2):
            head, cur = cur[-1], [0] + cur[:-1]
            if head:
                for i in range(d):
                    cur[i] = add(cur[i], mul(head, td[i]))
            tpow.append(tuple(cur))
        object.__setattr__(self, "_tpow", tuple(tpow))

    def __setattr__(self, name, value):
        raise AttributeError("Modulus is immutable")

    def reduce(self, f: FqPoly) -> FqPoly:
        if len(f.coeffs) <= self.d:
            return f
        return f % self.poly

    def _mulmod(self, a, b):
        # a, b: coefficient sequences of length <= d; returns a length-<=d list
        ctx = self.ctx
        if not a or not b:
            return []
        mul, add = ctx.mul, ctx.add
        raw = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        raw[i + j] = add(raw[i + j], mul(x, y))
        d = self.d
        if len(raw) <= d:
            return raw
        out = raw[:d]
        tpow = self._tpow
        for k in range(d, len(raw)):
            c = raw[k]
            if c:
                red = tpow[k - d]
                for i in range(d):
                    out[i] = add(out[i], mul(c, red[i]))
        return out

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"Modulus({format_poly(self.poly)!r} over F_{self.ctx.q})"


def irreducible_enumerate(ctx: FieldCtx, d: int) -> list[Modulus]:
    """All monic irreducible degree-d moduli in enumeration order.

    Each monic polynomial is tested once, by Modulus itself; the length is
    cross-checked against the necklace formula.
    """
    if d < 1:
        raise OutOfRangeError(f"degree must be >= 1, got {d}")
    out = []
    for f in monic_enumerate(ctx, d):
        try:
            out.append(Modulus(f))
        except ReducibleModulusError:
            pass
    expected = irreducible_count(ctx, d)
    if len(out) != expected:
        raise InternalError(
            f"irreducible count {len(out)} != necklace value {expected}")
    return out


def residue_pow(a: FqPoly, n: int, m: Modulus) -> FqPoly:
    """a^n mod m by square-and-multiply with reduction after each step."""
    if n < 0:
        raise OutOfRangeError(f"exponent must be >= 0, got {n}")
    if n > m.ctx.limit:
        raise OverflowLimitError("exponent", n, m.ctx.limit)
    base = m.reduce(a).coeffs
    result = [1]
    mulmod = m._mulmod
    while n > 0:
        if n & 1:
            result = mulmod(result, base)
        n >>= 1
        if n:
            base = mulmod(base, base)
    return FqPoly(m.ctx, result, check=False)

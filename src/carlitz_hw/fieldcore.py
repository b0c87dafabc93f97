"""Arithmetic in the coefficient field F_q, q = p^e.

Elements are integer codes in [0, q): the element with coordinate vector
(c_0, ..., c_{e-1}) in the power basis 1, x, ..., x^{e-1} modulo the
field-defining polynomial is encoded as c_0 + c_1 p + ... + c_{e-1} p^{e-1}.
For e = 1 the code is simply the residue mod p.  Ascending code order is the
canonical enumeration order used everywhere (coordinate c_0 varies fastest).

A FieldCtx is immutable after construction and all operations are pure, so a
context may be shared freely between threads or processes (rebuild it from
(p, e, field_modulus) rather than pickling it).  power is the package's one
square-and-multiply loop: FieldCtx.pow, FqPoly powers, polyring.residue_pow
and polyring.is_irreducible run it, each with its own product.

checked_power is the package's one size check of a power: q = p^e here,
and q^i, q^d and q^d - 1 in polyring, each refused above DEFAULT_LIMIT
before any work that depends on it.  A power past 2^20 bits is refused
without being built, named by its base and exponent.
"""

from __future__ import annotations

from .errors import (
    CoefficientRangeError,
    DomainError,
    NotPrimeError,
    OverflowLimitError,
    ReducibleModulusError,
    _shown,
)

# the integer-width ceiling of every size check (q, q^d, q^i, exponents);
# OverflowLimitError beyond it
DEFAULT_LIMIT = 2**40

# checked_power builds no power of more bits; one of 2^20 bits took up to
# 60 ms (2-core x86-64, Python 3.11)
_BUILT_BITS = 2**20

# Largest q for which multiplication/inverse tables are precomputed.
_TABLE_MAX_Q = 64

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for sp in _MR_WITNESSES:
        if n % sp == 0:
            return n == sp
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def checked_power(what: str, base: int, k: int, minus_one: bool = False) -> int:
    """base^k, less 1 with minus_one, for base >= 2 and k >= 0, or
    OverflowLimitError(what, ...) above DEFAULT_LIMIT.  base^k has at most
    k * bit_length(base) bits and, as bit_length(base) >= 2, at least half
    as many, so past 2^20 it is over the limit and is named, not built."""
    if k * base.bit_length() > _BUILT_BITS:
        named = f"{_shown(base)}^{_shown(k)}" + " - 1" * minus_one
        raise OverflowLimitError(what, named, DEFAULT_LIMIT)
    value = base**k - minus_one
    if value > DEFAULT_LIMIT:
        raise OverflowLimitError(what, value, DEFAULT_LIMIT)
    return value


def power(x, n, mul, one):
    """x^n for n >= 0 by square-and-multiply under the product mul, with
    identity one; no square is taken after the last bit of n."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


class FieldCtx:
    """The field F_q = F_{p^e} with a fixed defining polynomial.

    Attributes p, e, q and field_modulus (ascending F_p coefficients,
    length e + 1, monic) are read-only by convention.  add/sub/neg/mul are
    plain callables chosen at construction (direct residue arithmetic for
    e = 1, table lookup for small q, generic vector arithmetic otherwise);
    never pickle a context, rebuild it.  For
    e > 1, mulmod multiplies two F_p coordinate lists modulo field_modulus;
    make_field passes that of a prime-field polyring.Modulus.  Where the
    tables are built, the inverses and the q literals of format_elem are
    kept beside them.
    """

    __slots__ = ("p", "e", "q", "field_modulus",
                 "add", "sub", "neg", "mul", "_inv_table", "_names")

    def __init__(self, p, e, field_modulus, mulmod=None):
        self.p = p
        self.e = e
        self.q = p**e
        self.field_modulus = tuple(field_modulus)
        self._names = None
        if e == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: (-a) % p
            self.mul = lambda a, b: (a * b) % p
            self._inv_table = None
        else:
            self.add = lambda a, b: self.encode(
                [(x + y) % p for x, y in zip(self.decode(a), self.decode(b))])
            self.sub = lambda a, b: self.encode(
                [(x - y) % p for x, y in zip(self.decode(a), self.decode(b))])
            self.neg = lambda a: self.encode([(-x) % p for x in self.decode(a)])
            self.mul = lambda a, b: self.encode(mulmod(self.decode(a), self.decode(b)))
            self._inv_table = None
            if self.q <= _TABLE_MAX_Q:
                q = self.q
                add_t = [[self.add(a, b) for b in range(q)] for a in range(q)]
                mul_t = [[self.mul(a, b) for b in range(q)] for a in range(q)]
                neg_t = [self.neg(v) for v in range(q)]
                self.add = lambda a, b, _t=add_t: _t[a][b]
                self.mul = lambda a, b, _t=mul_t: _t[a][b]
                self.sub = lambda a, b, _t=add_t, _n=neg_t: _t[a][_n[b]]
                self.neg = lambda a, _n=neg_t: _n[a]
                self._inv_table = [None] + [self.pow(a, q - 2) for a in range(1, q)]
                self._names = [self.format_elem(a) for a in range(q)]

    def decode(self, a) -> list[int]:
        """The F_p coordinates c_0, ..., c_{e-1} of the element code a."""
        p = self.p
        return [(a // p**j) % p for j in range(self.e)]

    def encode(self, vec) -> int:
        """The element code of the F_p coordinates vec, c_0 first."""
        p = self.p
        code = 0
        for c in reversed(vec):
            code = code * p + c
        return code

    def pow(self, a, k):
        """a^k for k >= 0, by power."""
        if k < 0:
            raise DomainError("negative exponent in field pow")
        return power(a, k, self.mul, 1)

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.q}")
        if self.e == 1:
            return pow(a, -1, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    # -- literal syntax: decimal residue for e = 1, "[c0,c1,...]" for e > 1 --

    def format_elem(self, a) -> str:
        if self.e == 1:
            return str(a)
        if self._names is not None and 0 <= a < self.q:
            return self._names[a]
        return "[" + ",".join(str(c) for c in self.decode(a)) + "]"

    def parse_elem(self, text: str) -> int:
        text = text.strip()
        if text.isdigit():
            # bare digits denote prime-subfield constants in any extension
            v = int(text)
            if v >= self.p:
                raise CoefficientRangeError(f"coefficient {v} not in [0,{self.p})")
            return v
        if self.e == 1:
            raise CoefficientRangeError(
                f"expected a decimal residue in [0,{self.p}), got {text!r}")
        if not (text.startswith("[") and text.endswith("]")):
            raise CoefficientRangeError(
                f"expected a bracketed coefficient list over F_{self.p}, got {text!r}")
        parts = [s.strip() for s in text[1:-1].split(",")] if text != "[]" else []
        if not 1 <= len(parts) <= self.e:
            raise CoefficientRangeError(
                f"coefficient list {text!r} must have between 1 and {self.e} entries")
        vec = [0] * self.e
        for j, s in enumerate(parts):
            if not s.isdigit():
                raise CoefficientRangeError(f"bad F_{self.p} coefficient {s!r}")
            v = int(s)
            if v >= self.p:
                raise CoefficientRangeError(f"coefficient {v} not in [0,{self.p})")
            vec[j] = v
        return self.encode(vec)

    def format_field_modulus(self) -> str:
        """The defining polynomial over F_p in x, in format_poly's grammar."""
        from .polyring import format_coeffs  # polyring imports this module
        return format_coeffs(make_field(self.p), self.field_modulus).replace("T", "x")

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.e, self.field_modulus)
                == (other.p, other.e, other.field_modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.field_modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, q={self.q})"


def make_field(p: int, e: int = 1, field_modulus=None) -> FieldCtx:
    """Build a validated F_{p^e} context.

    With field_modulus omitted, the defining polynomial is the code-order
    least monic irreducible of degree e over F_p, which is deterministic
    across platforms.  For e = 1 the degenerate modulus is x itself and a
    user-supplied one is rejected.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(p)
    if not isinstance(e, int) or e < 1:
        raise DomainError(f"extension degree e must be a positive integer, got {e!r}")
    checked_power("q = p^e", p, e)
    prime = FieldCtx(p, 1, (0, 1))
    if e == 1:
        if field_modulus is not None and tuple(field_modulus) != (0, 1):
            raise DomainError("field_modulus is only meaningful for e > 1")
        return prime
    # polyring imports this module, so its F_p[x] arithmetic is imported late
    from .polyring import FqPoly, Modulus, least_irreducible
    if field_modulus is None:
        fmod = least_irreducible(prime, e)
    else:
        field_modulus = tuple(int(c) for c in field_modulus)
        if len(field_modulus) != e + 1 or field_modulus[-1] != 1:
            raise DomainError(
                f"field_modulus must be monic of degree {e} (length {e + 1})")
        if any(not 0 <= c < p for c in field_modulus):
            raise CoefficientRangeError("field_modulus coefficients must lie in [0,p)")
        try:
            fmod = Modulus(FqPoly(prime, field_modulus, check=False))
        except ReducibleModulusError:
            raise ReducibleModulusError(
                f"field_modulus is reducible over F_{p}") from None
    return FieldCtx(p, e, fmod.poly.coeffs, fmod._mulmod)

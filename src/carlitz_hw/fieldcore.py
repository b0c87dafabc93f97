"""Arithmetic in the coefficient field F_q, q = p^e.

Elements are integer codes in [0, q): the element with coordinate vector
(c_0, ..., c_{e-1}) in the power basis 1, x, ..., x^{e-1} modulo the
field-defining polynomial is encoded as c_0 + c_1 p + ... + c_{e-1} p^{e-1}.
For e = 1 the code is simply the residue mod p.  Ascending code order is the
canonical enumeration order used everywhere (coordinate c_0 varies fastest).

A FieldCtx is immutable after construction and all operations are pure, so a
context may be shared freely between threads or processes (rebuild it from
(p, e, field_modulus) rather than pickling it).
"""

from __future__ import annotations

from .errors import (
    CoefficientRangeError,
    DomainError,
    NotPrimeError,
    OverflowLimitError,
    ReducibleModulusError,
)

DEFAULT_LIMIT = 2**40

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


class FieldCtx:
    """The field F_q = F_{p^e} with a fixed defining polynomial.

    Attributes p, e, q, field_modulus (ascending F_p coefficients, length
    e + 1, monic) and limit (integer-width ceiling) are read-only by
    convention.  add/sub/neg/mul are plain callables chosen at construction
    (direct residue arithmetic for e = 1, table lookup for small q, generic
    vector arithmetic otherwise); never pickle a context, rebuild it.  For
    e > 1, mulmod multiplies two F_p coordinate lists modulo field_modulus;
    make_field passes that of a prime-field polyring.Modulus.
    """

    __slots__ = ("p", "e", "q", "field_modulus", "limit",
                 "add", "sub", "neg", "mul", "_inv_table")

    def __init__(self, p, e, field_modulus, limit=DEFAULT_LIMIT, mulmod=None):
        self.p = p
        self.e = e
        self.q = p**e
        self.field_modulus = tuple(field_modulus)
        self.limit = limit
        if e == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: (-a) % p
            self.mul = lambda a, b: (a * b) % p
            self._inv_table = None
        else:
            self.add = lambda a, b: self._encode(
                [(x + y) % p for x, y in zip(self._decode(a), self._decode(b))])
            self.sub = lambda a, b: self._encode(
                [(x - y) % p for x, y in zip(self._decode(a), self._decode(b))])
            self.neg = lambda a: self._encode([(-x) % p for x in self._decode(a)])
            self.mul = lambda a, b: self._encode(mulmod(self._decode(a), self._decode(b)))
            self._inv_table = None
            if self.q <= _TABLE_MAX_Q:
                q = self.q
                add_t = [[self.add(a, b) for b in range(q)] for a in range(q)]
                mul_t = [[self.mul(a, b) for b in range(q)] for a in range(q)]
                self.add = lambda a, b, _t=add_t: _t[a][b]
                self.mul = lambda a, b, _t=mul_t: _t[a][b]
                self.sub = lambda a, b, _t=add_t, _n=[self.neg(v) for v in range(q)]: _t[a][_n[b]]
                self.neg = lambda a, _n=[self._neg_generic(v) for v in range(q)]: _n[a]
                self._inv_table = [None] + [self.pow(a, q - 2) for a in range(1, q)]

    def _neg_generic(self, a):
        p = self.p
        return self._encode([(-x) % p for x in self._decode(a)])

    def _decode(self, a):
        p = self.p
        return [(a // p**j) % p for j in range(self.e)]

    def _encode(self, vec):
        p = self.p
        code = 0
        for c in reversed(vec):
            code = code * p + c
        return code

    def pow(self, a, k):
        """a^k for k >= 0 by square-and-multiply."""
        if k < 0:
            raise DomainError("negative exponent in field pow")
        result = 1 % self.q
        base = a
        while k > 0:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.q}")
        if self.e == 1:
            return pow(a, -1, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.pow(a, self.q - 2)

    def frobenius(self, a):
        """a^p, the absolute Frobenius."""
        return self.pow(a, self.p)

    def elements(self):
        """All q elements once, in ascending code order."""
        return range(self.q)

    def validate_elem(self, a):
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise DomainError(f"{a!r} is not an element code of F_{self.q}")
        return a

    # -- literal syntax: decimal residue for e = 1, "[c0,c1,...]" for e > 1 --

    def format_elem(self, a) -> str:
        if self.e == 1:
            return str(a)
        return "[" + ",".join(str(c) for c in self._decode(a)) + "]"

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
        return self._encode(vec)

    def format_field_modulus(self) -> str:
        terms = []
        for k in range(self.e, -1, -1):
            c = self.field_modulus[k] if k < len(self.field_modulus) else 0
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
        return "+".join(terms) if terms else "0"

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.e, self.field_modulus)
                == (other.p, other.e, other.field_modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.field_modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, q={self.q})"


def make_field(p: int, e: int = 1, field_modulus=None,
               limit: int = DEFAULT_LIMIT) -> FieldCtx:
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
    q = p**e
    if q > limit:
        raise OverflowLimitError("q = p^e", q, limit)
    prime = FieldCtx(p, 1, (0, 1), limit)
    if e == 1:
        if field_modulus is not None and tuple(field_modulus) != (0, 1):
            raise DomainError("field_modulus is only meaningful for e > 1")
        return prime
    # polyring imports this module, so its F_p[x] arithmetic is imported late
    from .polyring import FqPoly, Modulus, is_irreducible, monic_enumerate
    if field_modulus is None:
        fmod = next(f for f in monic_enumerate(prime, e) if is_irreducible(f))
    else:
        field_modulus = tuple(int(c) for c in field_modulus)
        if len(field_modulus) != e + 1 or field_modulus[-1] != 1:
            raise DomainError(
                f"field_modulus must be monic of degree {e} (length {e + 1})")
        if any(not 0 <= c < p for c in field_modulus):
            raise CoefficientRangeError("field_modulus coefficients must lie in [0,p)")
        fmod = FqPoly(prime, field_modulus, check=False)
        if not is_irreducible(fmod):
            raise ReducibleModulusError(
                f"field_modulus is reducible over F_{p}")
    return FieldCtx(p, e, fmod.coeffs, limit, Modulus._trusted(fmod)._mulmod)

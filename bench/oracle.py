"""Independent brute-force oracle for checking scan output.

It has its own F_q = F_{p^e}, F_q[T] and F_q[T]/m arithmetic and imports
nothing from carlitz_hw.  Definitions follow the paper, not the program:

* s_i(n) = sum of a^n over the monic a of degree i, computed here by
  enumerating every such a and reducing mod m;
* B_n(u) = sum_i s_i(n) u^i for n outside the zero class, and the partial
  sums sum_{j<=i} s_j(n) (i.e. C_n(u)/(1-u)) truncated at u^(d-2) for n in
  the zero class (q - 1) | n;
* the target at n is floor(l(n)/(q-1)), minus one in the zero class, with
  l(n) the base-q digit sum; g and g+ are the sums of targets over all n and
  over the zero class, and also have closed forms;
* lambda (lambda+) sums the u-degrees of B_n mod m over all (zero-class) n,
  1 <= n <= q^d - 2.

Field elements are integer codes c_0 + c_1 p + ... + c_{e-1} p^(e-1) of
their coordinates in the power basis, F_q is defined by the least monic
irreducible of degree e over F_p in that code order, and polynomials are
ascending tuples of codes with no trailing zeros.  Monic polynomials of one
degree are enumerated by ascending code with a_0 varying fastest.
"""

from __future__ import annotations

import re


class Field:
    """F_{p^e} with add/mul/neg/inverse tables built from vector arithmetic."""

    def __init__(self, p: int, e: int = 1):
        self.p, self.e, self.q = p, e, p**e
        self.modulus = (0, 1) if e == 1 else _least_irreducible_fp(p, e)
        q = self.q
        vecs = [self._vec(a) for a in range(q)]
        self.add = [[self._code([(x + y) % p for x, y in zip(vecs[a], vecs[b])])
                     for b in range(q)] for a in range(q)]
        self.mul = [[self._code(self._vmul(vecs[a], vecs[b])) for b in range(q)]
                    for a in range(q)]
        self.neg = [self._code([(-x) % p for x in vecs[a]]) for a in range(q)]
        self.inv = [None] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def _vec(self, a):
        return [(a // self.p**j) % self.p for j in range(self.e)]

    def _code(self, v):
        return sum(c * self.p**j for j, c in enumerate(v))

    def _vmul(self, u, v):
        p, e, f = self.p, self.e, self.modulus
        raw = [0] * (2 * e - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                raw[i + j] = (raw[i + j] + x * y) % p
        for k in range(2 * e - 2, e - 1, -1):  # x^k = -sum f_j x^(k-e+j)
            c = raw[k]
            if c:
                raw[k] = 0
                for j in range(e):
                    raw[k - e + j] = (raw[k - e + j] - c * f[j]) % p
        return raw[:e]

    def power(self, a, k):
        out = 1
        for _ in range(k):
            out = self.mul[out][a]
        return out


def _least_irreducible_fp(p, e):
    """Least monic degree-e polynomial over F_p, in code order, that is not a
    product of two monic factors of positive degree (a sieve)."""
    def monic(k):
        return [tuple((idx // p**j) % p for j in range(k)) + (1,) for idx in range(p**k)]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return tuple(out)

    reducible = {mul(a, b) for k in range(1, e // 2 + 1)
                 for a in monic(k) for b in monic(e - k)}
    return next(f for f in monic(e) if f not in reducible)


# ---------------------------------------------------------------------------
# F_q[T]

def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def padd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = F.add[out[i]][c]
    return trim(out)


def pmul(F, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    add, mul = F.add, F.mul
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b):
                out[i + j] = add[out[i + j]][row[y]]
    return trim(out)


def pmod(F, a, m):
    """a mod the monic m."""
    r = list(a)
    d = len(m) - 1
    add, mul, neg = F.add, F.mul, F.neg
    for top in range(len(r) - 1, d - 1, -1):
        c = r[top]
        if c:
            nc = neg[c]
            for j in range(d + 1):
                r[top - d + j] = add[r[top - d + j]][mul[nc][m[j]]]
    return trim(r[:d])


def monic_polys(F, i):
    q = F.q
    return [tuple((idx // q**j) % q for j in range(i)) + (1,) for idx in range(q**i)]


def irreducibles(F, d):
    """Monic irreducibles of degree d in enumeration order, by sieving out
    every product of two monic factors of positive degree."""
    reducible = set()
    for k in range(1, d // 2 + 1):
        right = monic_polys(F, d - k)
        for a in monic_polys(F, k):
            for b in right:
                reducible.add(pmul(F, a, b))
    return [f for f in monic_polys(F, d) if f not in reducible]


# ---------------------------------------------------------------------------
# text form of polynomials (the README grammar)

_TERM = re.compile(r"(?P<c>\[[0-9,]*\]|\d+)?(?:\*?(?P<T>T)(?:\^(?P<k>\d+))?)?")


def parse_elem(F, text):
    if text.isdigit():
        v = int(text)
        if v >= F.p:
            raise ValueError(f"coefficient {text} not below p")
        return v
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad field literal {text!r}")
    parts = [int(s) for s in text[1:-1].split(",")]
    if len(parts) > F.e or any(not 0 <= v < F.p for v in parts):
        raise ValueError(f"bad field literal {text!r}")
    return sum(v * F.p**j for j, v in enumerate(parts))


def parse_poly(F, text):
    """Parse '+'-separated terms c*T^k | c*T | T^k | T | c."""
    terms, depth, cur = [], 0, ""
    for ch in "".join(text.split()):
        depth += (ch == "[") - (ch == "]")
        if ch == "+" and depth == 0:
            terms.append(cur)
            cur = ""
        else:
            cur += ch
    terms.append(cur)
    coeffs = {}
    for term in terms:
        mt = _TERM.fullmatch(term)
        if mt is None or (mt.group("c") is None and mt.group("T") is None):
            raise ValueError(f"bad term {term!r} in {text!r}")
        c = parse_elem(F, mt.group("c")) if mt.group("c") is not None else 1
        k = 0 if mt.group("T") is None else int(mt.group("k") or 1)
        if k in coeffs:
            raise ValueError(f"repeated power T^{k} in {text!r}")
        coeffs[k] = c
    return trim(coeffs.get(k, 0) for k in range(max(coeffs) + 1))


# ---------------------------------------------------------------------------
# digits, targets and genera

def digit_sum(n, q):
    s = 0
    while n:
        n, r = divmod(n, q)
        s += r
    return s


def target(q, n):
    t = digit_sum(n, q) // (q - 1)
    return t - 1 if n % (q - 1) == 0 else t


def genus_closed(q, d):
    s = (q**d - 1) // (q - 1)
    two_g = (d * q - d - q) * s - (d - 2)
    two_gp = (d - 2) * (s - 1)
    if two_g % 2 or two_gp % 2:
        raise ValueError("odd genus numerator")
    return two_g // 2, two_gp // 2


def genus_from_targets(q, d):
    g = gp = 0
    for n in range(1, q**d - 1):
        t = target(q, n)
        g += t
        if n % (q - 1) == 0:
            gp += t
    return g, gp


# ---------------------------------------------------------------------------
# power sums and the u-degree of B_n mod m

def _powmod(F, a, n, m):
    result, base = (1,), pmod(F, a, m)
    while n:
        if n & 1:
            result = pmod(F, pmul(F, result, base), m)
        n >>= 1
        if n:
            base = pmod(F, pmul(F, base, base), m)
    return result


def _bn_degree_from_sums(F, sums, n, d):
    """u-degree of B_n from s_0(n), ..., s_k(n) mod m (zero beyond k)."""
    if n % (F.q - 1) == 0:
        coeffs, acc = [], ()
        for i in range(d - 1):
            acc = padd(F, acc, sums[i] if i < len(sums) else ())
            coeffs.append(acc)
    else:
        coeffs = sums
    # the constant term s_0(n) = 1^n = 1 never vanishes
    return max(i for i, c in enumerate(coeffs) if c)


def bn_degree(F, m, n):
    """u-degree of B_n mod m at one exponent, by square-and-multiply.

    Only the s_i(n) with i <= l(n)/(q-1) are summed, since s_i(n) = 0 for
    larger i; `degree_stream`, which sums every i < d, checks that on its
    range."""
    d = len(m) - 1
    top = min(d - 1, digit_sum(n, F.q) // (F.q - 1))
    sums = []
    for i in range(top + 1):
        acc = ()
        for a in monic_polys(F, i):
            acc = padd(F, acc, _powmod(F, a, n, m))
        sums.append(acc)
    return _bn_degree_from_sums(F, sums, n, d)


def degree_stream(F, m, n_max):
    """u-degrees of B_n mod m for n = 1..n_max, summing every s_i(n), i < d,
    with the powers a^n advanced by one multiplication per step.  Raises if
    some s_i(n) with i > l(n)/(q-1) does not vanish."""
    d = len(m) - 1
    groups = [monic_polys(F, i) for i in range(d)]
    bases = [[pmod(F, a, m) for a in grp] for grp in groups]
    powers = [list(b) for b in bases]
    out = []
    for n in range(1, n_max + 1):
        if n > 1:
            for i in range(d):
                pw, bs = powers[i], bases[i]
                for k in range(len(pw)):
                    pw[k] = pmod(F, pmul(F, pw[k], bs[k]), m)
        sums = []
        for pw in powers:
            acc = ()
            for x in pw:
                acc = padd(F, acc, x)
            sums.append(acc)
        cap = digit_sum(n, F.q) // (F.q - 1)
        if any(sums[i] for i in range(cap + 1, d)):
            raise AssertionError(f"s_i({n}) mod m does not vanish beyond i = {cap}")
        out.append(_bn_degree_from_sums(F, sums, n, d))
    return out


def invariants(F, m):
    """(lambda, lambda_plus, defect exponents) over 1 <= n <= q^d - 2."""
    q, d = F.q, len(m) - 1
    lam = lam_plus = 0
    defects = []
    for n, deg in enumerate(degree_stream(F, m, q**d - 2), start=1):
        t = target(q, n)
        if deg > t:
            raise AssertionError(f"degree {deg} above target {t} at n={n}")
        lam += deg
        if n % (q - 1) == 0:
            lam_plus += deg
        if deg != t:
            defects.append(n)
    return lam, lam_plus, defects


# ---------------------------------------------------------------------------
# orbits of moduli under T -> aT + c and the coefficient Frobenius

def _images(F, m):
    d = len(m) - 1
    for alpha in range(1, F.q):
        lead_inv = F.inv[F.power(alpha, d)]
        for c in range(F.q):
            lin = (c, alpha)
            acc = ()
            for coef in reversed(m):
                acc = padd(F, pmul(F, acc, lin), (coef,) if coef else ())
            yield tuple(F.mul[lead_inv][x] for x in acc)
    yield tuple(F.power(x, F.p) for x in m)


def orbits(F, moduli):
    """Partition of all monic irreducibles reachable from `moduli` into
    orbits, as a dict modulus -> frozenset of its orbit."""
    out = {}
    for m in moduli:
        if m in out:
            continue
        orbit, todo = {m}, [m]
        while todo:
            for img in _images(F, todo.pop()):
                if img not in orbit:
                    orbit.add(img)
                    todo.append(img)
        frozen = frozenset(orbit)
        for x in orbit:
            out[x] = frozen
    return out


def headline_self_test():
    """The paper's example: m = T^3 + 2T + 1 over F_3 has g = 19, g+ = 6,
    lambda = 18, lambda+ = 6 and a single defect at n = 13."""
    F = Field(3)
    m = parse_poly(F, "T^3+2T+1")
    got = (genus_closed(3, 3), genus_from_targets(3, 3), invariants(F, m))
    want = ((19, 6), (19, 6), (18, 6, [13]))
    if got != want:
        raise AssertionError(f"oracle headline example: got {got}, want {want}")

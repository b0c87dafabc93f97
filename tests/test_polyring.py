import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz_hw import (
    FqPoly,
    Modulus,
    NEG_INF,
    format_poly,
    irreducible_enumerate,
    is_irreducible,
    make_field,
    monic_enumerate,
    parse_poly,
    residue_pow,
)
from carlitz_hw.errors import (
    CoefficientRangeError,
    DegreeTooSmallError,
    DomainError,
    OutOfRangeError,
    OverflowLimitError,
    PolyParseError,
    ReducibleModulusError,
)
from carlitz_hw.fieldcore import power
from carlitz_hw.polyring import _mobius, irreducible_count, mulmod, reduction_rows


# ---------------------------------------------------------------- parsing

def test_parse_paper_modulus(f3):
    assert parse_poly("T^3+2*T+1", f3).coeffs == (1, 2, 0, 1)
    assert parse_poly("T^3+2T+1", f3).coeffs == (1, 2, 0, 1)  # implicit *
    assert parse_poly(" T^3 + 2*T + 1 ", f3).coeffs == (1, 2, 0, 1)


def test_parse_zero(f3):
    z = parse_poly("0", f3)
    assert z.coeffs == ()
    assert z.degree == NEG_INF


def test_parse_extension_literals(f4):
    g = parse_poly("[1,1]*T+[0,1]", f4)
    assert g.coeffs == (2, 3)  # constant x, leading 1+x
    assert parse_poly("[1,1]T+[0,1]", f4) == g


def test_parse_compact_form(f3, f4):
    assert parse_poly("1,2,0,1", f3) == parse_poly("T^3+2*T+1", f3)
    assert parse_poly("[0,1],[1,1]", f4) == parse_poly("[1,1]*T+[0,1]", f4)
    assert parse_poly("1,0,0", f3) == parse_poly("1", f3)  # trailing zeros drop


def test_parse_repeated_terms_accumulate(f3):
    assert parse_poly("T+T+T^2", f3) == parse_poly("T^2+2T", f3)


@pytest.mark.parametrize("bad", ["", "T^", "2*", "T3", "x+1", "T^-1", "[1,1", "T*T"])
def test_parse_errors(bad, f3):
    with pytest.raises(PolyParseError):
        parse_poly(bad, f3)


def test_parse_coefficient_range(f3):
    with pytest.raises(CoefficientRangeError):
        parse_poly("3*T", f3)
    with pytest.raises(CoefficientRangeError):
        parse_poly("4", f3)


@st.composite
def _polys(draw, ctx):
    coeffs = draw(st.lists(st.integers(0, ctx.q - 1), max_size=8))
    return FqPoly(ctx, coeffs)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_format_parse_round_trip(data):
    ctx = data.draw(st.sampled_from(
        [make_field(2), make_field(3), make_field(5), make_field(2, 2),
         make_field(3, 2)]))
    f = data.draw(_polys(ctx))
    assert parse_poly(format_poly(f), ctx) == f


# ---------------------------------------------------------------- arithmetic

def test_mul_example(f3):
    assert parse_poly("T+1", f3) * parse_poly("T+2", f3) == parse_poly("T^2+2", f3)


def test_divrem_example(f3):
    q, r = divmod(parse_poly("T^3", f3), parse_poly("T^3+2T+1", f3))
    assert format_poly(q) == "1"
    assert format_poly(r) == "T+2"


def test_division_by_zero(f3):
    with pytest.raises(ZeroDivisionError):
        divmod(parse_poly("T", f3), FqPoly.zero(f3))


def test_cross_field_operands_rejected(f3, f5):
    with pytest.raises(DomainError):
        parse_poly("T", f3) + parse_poly("T", f5)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_ring_axioms_and_divrem_round_trip(data):
    ctx = data.draw(st.sampled_from([make_field(3), make_field(2, 2), make_field(5)]))
    a = data.draw(_polys(ctx))
    b = data.draw(_polys(ctx))
    c = data.draw(_polys(ctx))
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == FqPoly.zero(ctx)
    if not b.is_zero():
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_numpy_path_matches_schoolbook(f3):
    # long prime-field products cross the fast-path threshold
    a = FqPoly(f3, [1, 2] * 40)
    b = FqPoly(f3, [2, 0, 1] * 25)
    fast = a * b
    slow = FqPoly.zero(f3)
    for i, c in enumerate(a.coeffs):
        if c:
            slow = slow + FqPoly(f3, [0] * i + [c]) * b
    assert fast == slow
    # mulmod shares the product, so operands this long take the same path
    f = FqPoly(f3, [2] * 80 + [1])
    rows = reduction_rows(f3, f.coeffs)
    assert FqPoly(f3, mulmod(f3, rows, a.coeffs, b.coeffs)) == slow % f


def test_mod_degree_bound(f3, m_headline):
    f = parse_poly("T^7+T+2", f3)
    assert (f % m_headline.poly).degree < 3


# ---------------------------------------------------------------- enumeration

def test_monic_enumerate_degree_zero(f3):
    assert [format_poly(f) for f in monic_enumerate(f3, 0)] == ["1"]


def test_monic_enumerate_degree_one(f3):
    assert [format_poly(f) for f in monic_enumerate(f3, 1)] == ["T", "T+1", "T+2"]


def test_monic_enumerate_count(f4):
    fs = list(monic_enumerate(f4, 2))
    assert len(fs) == 16
    assert len(set(fs)) == 16
    assert all(f.is_monic() and f.degree == 2 for f in fs)


# ---------------------------------------------------------------- irreducibility

def _irreducible_by_trial_division(f):
    # oracle: a monic divisor of degree 1..deg/2 exists iff f is reducible
    k = f.degree
    for i in range(1, k // 2 + 1):
        for g in monic_enumerate(f.ctx, i):
            if (f % g).is_zero():
                return False
    return True


def test_is_irreducible_examples(f2, f3):
    assert is_irreducible(parse_poly("T^3+2T+1", f3))
    assert not is_irreducible(parse_poly("T^2+1", f2))  # (T+1)^2
    assert is_irreducible(parse_poly("T^2+1", f3))      # no roots in F_3


def test_is_irreducible_requires_degree(f3):
    with pytest.raises(DegreeTooSmallError):
        is_irreducible(parse_poly("2", f3))


@pytest.mark.parametrize("p, e, top", [(2, 1, 6), (3, 1, 5), (2, 2, 4)],
                         ids=["2", "3", "4"])
def test_is_irreducible_matches_trial_division(p, e, top):
    # every monic f of degree up to top over F_q; at q = 2 the squares of the
    # irreducible quadratics and cubics, whose only factor has degree k/2,
    # show a walk that stops short of k/2
    ctx = make_field(p, e)
    for k in range(1, top + 1):
        for f in monic_enumerate(ctx, k):
            assert is_irreducible(f) == _irreducible_by_trial_division(f), \
                format_poly(f)


@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (2, 2)])
def test_is_irreducible_non_monic_matches_monic(p, e):
    ctx = make_field(p, e)
    for k in range(1, 4):
        for f in monic_enumerate(ctx, k):
            expected = is_irreducible(f)
            for c in range(2, ctx.q):
                assert is_irreducible(f.scale(c)) == expected, format_poly(f.scale(c))


def test_mobius_matches_definition():
    # mu(1) = 1, and mu sums to 0 over the divisors of every n > 1
    mu = [None, 1]
    for n in range(2, 201):
        mu.append(-sum(mu[d] for d in range(1, n) if n % d == 0))
    assert [_mobius(n) for n in range(1, 201)] == mu[1:]


def test_irreducible_enumerate_counts(f2, f3, f4):
    assert len(irreducible_enumerate(f3, 1)) == 3
    assert len(irreducible_enumerate(f3, 3)) == 8
    quads2 = irreducible_enumerate(f2, 2)
    assert [format_poly(m.poly) for m in quads2] == ["T^2+T+1"]
    assert len(irreducible_enumerate(f4, 2)) == irreducible_count(f4, 2) == 6


def test_modulus_validation(f3):
    with pytest.raises(ReducibleModulusError):
        Modulus(parse_poly("T^2", f3))
    with pytest.raises(DomainError):
        Modulus(parse_poly("2*T+1", f3))  # not monic
    m = Modulus(parse_poly("T^2+1", f3))
    assert (m.d, m.group_order) == (2, 8)


def test_modulus_checks_the_size_before_irreducibility(f2):
    # 2^480 - 1 is far over the ceiling: refused at once, before the
    # irreducibility test, whose cost grows with d (T^480+T+1 is reducible)
    with pytest.raises(OverflowLimitError, match="q\\^d - 1"):
        Modulus(parse_poly("T^480+T+1", f2))


# ---------------------------------------------------------------- products mod f

@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2)])
def test_mulmod_and_power_match_multiply_then_mod(p, e):
    # every monic f of degree 1..4, reducible ones included
    ctx = make_field(p, e)
    rng = random.Random(10 * p + e)
    for k in range(1, 5):
        for f in monic_enumerate(ctx, k):
            mul = partial(mulmod, ctx, reduction_rows(ctx, f.coeffs))
            for _ in range(4):
                a = [rng.randrange(ctx.q) for _ in range(k)]
                b = [rng.randrange(ctx.q) for _ in range(rng.randint(0, k))]
                assert FqPoly(ctx, mul(a, b)) == (FqPoly(ctx, a) * FqPoly(ctx, b)) % f
                n = rng.randrange(20)
                expected = FqPoly.one(ctx) % f
                for _ in range(n):
                    expected = expected * FqPoly(ctx, a) % f
                assert FqPoly(ctx, power(a, n, mul, [1])) == expected, (format_poly(f), a, n)


# ---------------------------------------------------------------- residue powers

def test_residue_pow_examples(f3, m_headline):
    t = FqPoly.gen(f3)
    assert format_poly(residue_pow(t, 3, m_headline)) == "T+2"
    assert format_poly(residue_pow(t, 26, m_headline)) == "1"
    assert format_poly(residue_pow(t, 0, m_headline)) == "1"


def test_residue_pow_unit_group_order(f4):
    for m in irreducible_enumerate(f4, 2):
        if (FqPoly.gen(f4) % m.poly).is_zero():
            continue
        assert residue_pow(FqPoly.gen(f4), m.group_order, m) == FqPoly.one(f4)


def test_residue_pow_rejects_negative(f3, m_headline):
    with pytest.raises(OutOfRangeError):
        residue_pow(FqPoly.gen(f3), -1, m_headline)


@given(coeffs=st.lists(st.integers(0, 2), max_size=6),
       n1=st.integers(0, 60), n2=st.integers(0, 60))
@settings(max_examples=150, deadline=None)
def test_residue_pow_additive_in_exponent(coeffs, n1, n2, f3, m_headline):
    a = FqPoly(f3, coeffs)
    lhs = residue_pow(a, n1 + n2, m_headline)
    rhs = (residue_pow(a, n1, m_headline) * residue_pow(a, n2, m_headline)) \
        % m_headline.poly
    assert lhs == rhs


def test_residue_pow_matches_exact_mod(f3, m_headline):
    for coeffs in [(1,), (0, 1), (2, 1), (1, 0, 2), (2, 2, 1)]:
        a = FqPoly(f3, list(coeffs))
        for n in (1, 2, 7, 25, 26):
            assert residue_pow(a, n, m_headline) == (a**n) % m_headline.poly


def test_residue_pow_frobenius_compatibility(f3, m_headline):
    # a^(p*n mod (q^d - 1)) = (a^n)^p mod m for a not divisible by m
    order = m_headline.group_order
    for code in range(1, 12):
        a = FqPoly(f3, [code % 3, (code // 3) % 3, code % 2])
        if (a % m_headline.poly).is_zero():
            continue
        for n in range(1, order):
            lhs = residue_pow(a, 3 * n % order, m_headline)
            rhs = residue_pow(residue_pow(a, n, m_headline), 3, m_headline)
            assert lhs == rhs

import pytest

from carlitz_hw import (
    FqPoly,
    NEG_INF,
    b_poly,
    c_poly,
    format_poly,
    irreducible_enumerate,
    make_field,
    powersums,
    s_exact,
    s_mod,
)
from carlitz_hw.bpoly import UPoly, divide_by_one_minus_u, one_upoly
from carlitz_hw.errors import CostCeilingError, DomainError, OutOfRangeError


def test_c_poly_examples(f3):
    c5 = c_poly(5, f3)
    assert [format_poly(c) for c in c5.coeffs] == ["1", "2*T^3+T"]
    c8 = c_poly(8, f3)
    assert [format_poly(c) for c in c8.coeffs] == \
        ["1", "2*T^6+2*T^4+2*T^2+2", "T^6+T^4+T^2"]


@pytest.mark.parametrize("p,e,d", [(3, 1, 3), (2, 1, 4), (2, 2, 2)])
def test_c_poly_vanishes_at_one_for_zero_class(p, e, d):
    ctx = make_field(p, e)
    q = ctx.q
    for n in range(q - 1, q**d - 1, q - 1):
        assert sum(c_poly(n, ctx).coeffs, FqPoly.zero(ctx)).is_zero(), n  # C_n(1)


def test_b_poly_examples(f3):
    b5 = b_poly(5, f3)
    assert b5 == c_poly(5, f3)
    assert b5.u_degree == 1
    b8 = b_poly(8, f3)
    assert [format_poly(c) for c in b8.coeffs] == ["1", "2*T^6+2*T^4+2*T^2"]
    b2 = b_poly(2, f3)
    assert [format_poly(c) for c in b2.coeffs] == ["1"]


def test_b_poly_residue_headline_values(f3, m_headline):
    assert [format_poly(c) for c in b_poly(8, f3, m=m_headline).coeffs] == ["1", "2"]
    assert [format_poly(c) for c in b_poly(5, f3, m=m_headline).coeffs] == ["1", "1"]
    # the defect exponent: the degree collapses to 0
    assert b_poly(13, f3, m=m_headline).u_degree == 0


def test_b_poly_residue_cor31_witness(f4):
    for m in irreducible_enumerate(f4, 2):
        assert b_poly(10, f4, m=m) == one_upoly(f4, m)
    for m in irreducible_enumerate(f4, 3):
        assert b_poly(42, f4, m=m) == one_upoly(f4, m)


def test_c_poly_checks_its_top_term_first(monkeypatch, f3, m_headline):
    # l(25) = 5 at q = 3, so C_25 has u-degree 2: s_2(25) is the costliest
    # term, and over budget it is refused before any term is computed
    calls = []
    monkeypatch.setattr(powersums, "residue_pow", lambda *args: calls.append(args))
    monkeypatch.setattr(powersums, "_s_exact_cached", lambda *args: calls.append(args))
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(powersums.mod_cost(2, 25, f3, 3) - 1))
    with pytest.raises(CostCeilingError, match=r"^s_mod\(i=2, n=25\) "):
        c_poly(25, f3, m_headline)
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(powersums.exact_cost(2, 25, f3) - 1))
    with pytest.raises(CostCeilingError, match=r"^s_exact\(i=2, n=25\) "):
        c_poly(25, f3)
    assert calls == []


def test_u_degree_examples(f3, m_headline):
    for m in irreducible_enumerate(f3, 2) + [m_headline]:
        assert b_poly(5, f3, m=m).u_degree == 1
    assert b_poly(8, f3, m=m_headline).u_degree == 1
    assert UPoly(()).u_degree == NEG_INF


def test_division_cross_check_runs_on_zero_class(f3):
    # internal remainder/partial-sum cross-check must stay silent
    for n in (2, 4, 6, 8, 10, 12, 24):
        b_poly(n, f3)


def test_division_remainder_reports_value_at_one(f3):
    # for n outside the zero class the remainder is C_n(1) = 1 + s_1(n) here
    _, remainder = divide_by_one_minus_u(c_poly(5, f3))
    assert format_poly(remainder) == "2*T^3+T+1"
    assert remainder == sum(c_poly(5, f3).coeffs, FqPoly.zero(f3))


def test_divide_by_one_minus_u_inverts_multiplication(f3):
    # (1 - u) * Q + R reproduces C for assorted series
    one = FqPoly.one(f3)
    t = FqPoly.gen(f3)
    c = UPoly([one, t, t * t, one + t])
    quotient, remainder = divide_by_one_minus_u(c)
    one_minus_u = UPoly([one, -one])
    back = one_minus_u * quotient
    rebuilt = [remainder + back.coeffs[0]] + list(back.coeffs[1:len(c.coeffs)])
    assert UPoly(rebuilt) == c


def _b_literal(n, ctx, d):
    # the defining d-dependent construction, written out verbatim
    q = ctx.q
    if n % (q - 1) == 0:
        coeffs = []
        for i in range(d - 1):
            acc = FqPoly.zero(ctx)
            for j in range(i + 1):
                acc = acc + s_exact(j, n, ctx)
            coeffs.append(acc)
    else:
        coeffs = [s_exact(i, n, ctx) for i in range(d)]
    return UPoly(coeffs)


@pytest.mark.parametrize("p,e", [(3, 1), (2, 2)])
def test_b_poly_is_d_independent(p, e):
    ctx = make_field(p, e)
    q = ctx.q
    for n in range(1, q**2 - 1):
        b = b_poly(n, ctx)
        assert b == _b_literal(n, ctx, 2), n
        assert b == _b_literal(n, ctx, 3), n
        assert b == _b_literal(n, ctx, 4), n


@pytest.mark.parametrize("p,e,d", [(3, 1, 3), (2, 2, 2), (2, 1, 4)])
def test_b_poly_residue_matches_reduced_exact(p, e, d):
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, d):
        for n in range(1, m.group_order):
            got = b_poly(n, ctx, m=m)
            want = UPoly([c % m.poly for c in _b_literal(n, ctx, d).coeffs], m)
            assert got == want, (format_poly(m.poly), n)


@pytest.mark.parametrize("p,e,d", [(2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_reduced_degree_is_frobenius_orbit_invariant(p, e, d):
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, d):
        order = m.group_order
        for n in range(1, order):
            n2 = p * n % order
            assert b_poly(n2, ctx, m=m).u_degree == b_poly(n, ctx, m=m).u_degree


def test_range_rejection(f3, m_headline):
    with pytest.raises(OutOfRangeError):
        b_poly(0, f3)
    with pytest.raises(OutOfRangeError):
        b_poly(26, f3, m=m_headline)  # q^d - 1
    with pytest.raises(OutOfRangeError, match="n=<5001-digit integer> outside"):
        b_poly(10**5000, f3, m=m_headline)  # str() refuses n
    with pytest.raises(OutOfRangeError):
        c_poly(0, f3)
    b_poly(26, f3)  # exact mode has no ambient degree to bound n


def test_upoly_mode_checks(f3, m_headline):
    # a UPoly is residue exactly when it has a modulus
    with pytest.raises(DomainError):
        UPoly([FqPoly.gen(f3) ** 5], m_headline)  # degree >= d
    exact = UPoly([FqPoly.one(f3)])
    residue = one_upoly(f3, m_headline)
    assert (repr(exact), repr(residue)) == ("UPoly[exact](1)", "UPoly[residue](1)")
    assert exact == one_upoly(f3) != residue
    with pytest.raises(DomainError):
        exact * residue


def test_s_mod_consistency_inside_b(f3, m_headline):
    b = b_poly(7, f3, m=m_headline)
    assert b.coeffs[0] == FqPoly.one(f3)
    assert b.coeffs[1] == s_mod(1, 7, m_headline)

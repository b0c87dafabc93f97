"""Acceptance criteria, one test per criterion.

Every assertion is exact integer/polynomial equality; the stated wall-clock
bounds are asserted where the criterion gives one.  Each test prints a
single PASS line (visible with pytest -s / in captured output).
"""

import re
import time

from carlitz_hw import (
    FqPoly,
    b_poly,
    c_poly,
    f_poly,
    hasse_witt,
    irreducible_enumerate,
    is_ordinary,
    is_ordinary_plus,
    make_field,
    s1_closed_form,
    s_exact,
    scan_degree,
    verify_identities,
    write_records,
    z_bar,
)
from carlitz_hw.bpoly import divide_by_one_minus_u
from carlitz_hw.digits import ell, gekeler_degree_bound
from carlitz_hw.errors import ClosedFormWindowError
from carlitz_hw.powersums import RootSums
from conftest import expand_orbits, full_pass_stream


def _report(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_criterion_1_headline_example(m_headline):
    start = time.monotonic()
    rep = hasse_witt(m_headline)
    elapsed = time.monotonic() - start
    assert (rep.g, rep.lambda_) == (19, 18)
    assert rep.ordinary is False
    assert rep.supersingular is False
    assert (rep.g_plus, rep.lambda_plus) == (6, 6)
    assert rep.ordinary_plus is True
    assert elapsed < 5.0
    _report("1 headline example (g=19, lambda=18, g+=lambda+=6)")


def test_criterion_2_quadratics_over_prime_fields():
    start = time.monotonic()
    for p in (2, 3, 5):
        ctx = make_field(p)
        moduli = irreducible_enumerate(ctx, 2)
        assert len(moduli) == (p * p - p) // 2
        for m in moduli:
            rep = hasse_witt(m)
            assert rep.ordinary and rep.ordinary_plus, rep.m
    assert time.monotonic() - start < 10.0
    _report("2 degree-2 sweep at q=p in {2,3,5}: all ordinary")


def test_criterion_3_cubics_over_f3(f3):
    records = {r.m: r for r in scan_degree(f3, 3)}
    assert len(records) == 8
    assert all(r.ordinary_plus for r in records.values())
    headline = records["T^3+2*T+1"]
    assert headline.ordinary is False
    _report("3 degree-3 sweep over F_3: all plus-ordinary, counterexample found")


def test_criterion_4_classification_at_q4(f4):
    for m in irreducible_enumerate(f4, 1):
        assert hasse_witt(m).ordinary
    for m in irreducible_enumerate(f4, 2):
        assert is_ordinary(m) == (False, 10)
        assert is_ordinary_plus(m) == (True, None)
    start = time.monotonic()
    for m in irreducible_enumerate(f4, 3):
        assert is_ordinary_plus(m) == (False, 42)
    assert time.monotonic() - start < 60.0
    _report("4 classification at q=4: witnesses n=10 (d=2) and n=42 (d=3)")


def test_criterion_5_identity_suites():
    configs = [(2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (3, 1, 4),
               (2, 2, 2), (2, 2, 3), (5, 1, 2)]
    for p, e, d in configs:
        ctx = make_field(p, e)
        checks = verify_identities(ctx, d)
        failed = [c for c in checks if not c.passed]
        assert not failed, (p, e, d, failed)
    _report("5 digit-sum and genus identities at eight (q,d) configurations")


def _shift_arg(f, alpha):
    ctx = f.ctx
    shift = FqPoly(ctx, [alpha, 1])
    acc = FqPoly.zero(ctx)
    for c in reversed(f.coeffs):
        acc = acc * shift + FqPoly(ctx, [c])
    return acc


def _scale_arg(f, alpha):
    ctx = f.ctx
    out = []
    power = 1
    for c in f.coeffs:
        out.append(ctx.mul(c, power))
        power = ctx.mul(power, alpha)
    return FqPoly(ctx, out)


def test_criterion_6_oracle_suites():
    for p in (2, 3, 5):
        ctx = make_field(p)
        # degree law and the vanishing criterion, i <= 3, n <= 200
        for n in range(1, 201):
            l_n = ell(n, p)
            for i in range(4):
                s = s_exact(i, n, ctx)
                assert s.degree == gekeler_degree_bound(i, n, ctx), (p, i, n)
                assert s.is_zero() == (l_n // (p - 1) < i), (p, i, n)
        # generating polynomials where every power sum involved has i <= 3
        for n in range(1, 201):
            if ell(n, p) // (p - 1) > 3:
                continue
            c = c_poly(n, ctx)
            if n % (p - 1) == 0:
                assert sum(c.coeffs, FqPoly.zero(ctx)).is_zero(), (p, n)  # C_n(1)
                quotient, remainder = divide_by_one_minus_u(c)
                assert remainder.is_zero(), (p, n)
                assert quotient == b_poly(n, ctx), (p, n)
            else:
                assert b_poly(n, ctx) == c, (p, n)
        # closed form against the oracle on its validated window
        window = 0
        for n in range(1, p * p):
            try:
                closed = s1_closed_form(n, ctx)
            except ClosedFormWindowError:
                continue
            assert closed == s_exact(1, n, ctx), (p, n)
            window += 1
        assert window > 0
        # symmetries of 1 + s_1(n) for zero-class n <= 60
        for n in range(p - 1 if p > 2 else 1, 61, max(p - 1, 1)):
            f = f_poly(n, ctx)
            for alpha in range(p):
                assert _shift_arg(f, alpha) == f, (p, n, alpha)
                if alpha:
                    assert _scale_arg(f, alpha) == f, (p, n, alpha)
            padded = list(f.coeffs) + [0] * (n + 1 - len(f.coeffs))
            assert FqPoly(ctx, list(reversed(padded))) == f, (p, n)
    _report("6 brute-force oracle suites at q=p in {2,3,5}, n <= 200")


def test_criterion_7_structural_cross_checks(f3, f4, f2, m_headline, naive_stream):
    configs = [(f2, 3), (f3, 2), (f3, 3), (f4, 2)]
    for ctx, d in configs:
        for m in irreducible_enumerate(ctx, d):
            rep = hasse_witt(m)
            assert expand_orbits(m, full_pass_stream(RootSums.of(m))) == naive_stream(m), rep.m
            assert 0 <= rep.lambda_plus <= rep.lambda_ <= rep.g
            assert rep.lambda_plus <= rep.g_plus
            zf, zp = z_bar(m)
            assert zf.u_degree == rep.lambda_
            assert zp.u_degree == rep.lambda_plus
            ordinary, witness = is_ordinary(m)
            assert ordinary == (rep.lambda_ == rep.g)
            assert witness == (rep.defects[0].n if rep.defects else None)
            ordinary_plus, witness_plus = is_ordinary_plus(m)
            assert ordinary_plus == (rep.lambda_plus == rep.g_plus)
            assert witness_plus == \
                (rep.defects_plus[0].n if rep.defects_plus else None)
    # headline modulus gets the same treatment
    rep = hasse_witt(m_headline)
    zf, zp = z_bar(m_headline)
    assert (zf.u_degree, zp.u_degree) == (rep.lambda_, rep.lambda_plus)
    _report("7 structural cross-checks on every modulus at four configurations")


def test_criterion_8_scan_determinism(tmp_path, f3):
    paths = []
    for workers in (1, 8):
        path = tmp_path / f"scan-w{workers}.csv"
        write_records(scan_degree(f3, 3, workers=workers), "csv", str(path))
        paths.append(path)
    mask = lambda text: re.sub(r"\d+$", "X", text, flags=re.M)
    a, b = (p.read_text() for p in paths)
    assert a != "" and a.splitlines()[0].endswith("elapsed_ms")
    assert mask(a) == mask(b)
    _report("8 scan output byte-identical across worker counts")

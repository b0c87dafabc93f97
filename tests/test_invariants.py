import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carlitz_hw import (
    Modulus,
    genus,
    hasse_witt,
    irreducible_enumerate,
    is_ordinary,
    is_ordinary_plus,
    make_field,
    parse_poly,
    run_verify_suite,
    verify_identities,
    z_bar,
)
from carlitz_hw.digits import target_degrees
from carlitz_hw.errors import (
    CostCeilingError,
    InternalError,
    OutOfRangeError,
    OverflowLimitError,
)
from carlitz_hw import invariants, powersums
from carlitz_hw.invariants import SUITE_NAMES, degree_stream, first_defects
from carlitz_hw.polyring import FqPoly, format_poly, is_irreducible, monic_enumerate
from carlitz_hw.powersums import LogTable, ResidueSums, residue_cost, s_mod


def test_genus_values(f3, f4):
    assert genus(f3, 3) == (19, 6)
    assert genus(f3, 1) == (0, 0)
    assert genus(f3, 2) == (2, 0)
    assert genus(f4, 1) == (0, 0)
    assert genus(f4, 2) == (5, 0)
    assert genus(f4, 3) == (52, 10)
    assert genus(make_field(2), 3) == (3, 3)
    assert genus(make_field(5), 2) == (9, 0)


def test_genus_guards(f3):
    with pytest.raises(OutOfRangeError):
        genus(f3, 0)
    with pytest.raises(OverflowLimitError):
        genus(f3, 100)


def test_headline_report(m_headline):
    rep = hasse_witt(m_headline)
    assert (rep.g, rep.lambda_) == (19, 18)
    assert (rep.g_plus, rep.lambda_plus) == (6, 6)
    assert not rep.ordinary and rep.ordinary_plus and not rep.supersingular
    assert [(f.n, f.target, f.actual) for f in rep.defects] == [(13, 1, 0)]
    assert rep.defects_plus == []


def test_report_serialization(m_headline):
    payload = json.dumps(hasse_witt(m_headline).to_json_dict(),
                         separators=(",", ":"))
    assert payload == (
        '{"p":3,"e":1,"q":3,"field_modulus":"x","m":"T^3+2*T+1","d":3,'
        '"g":19,"g_plus":6,"lambda":18,"lambda_plus":6,"ordinary":false,'
        '"ordinary_plus":true,"supersingular":false,'
        '"defects":[{"n":13,"target":1,"actual":0}],"defects_plus":[]}')


def test_quadratics_over_f3(f3):
    for m in irreducible_enumerate(f3, 2):
        rep = hasse_witt(m)
        assert rep.lambda_ == rep.g == 2
        assert rep.lambda_plus == rep.g_plus == 0
        assert rep.ordinary and rep.ordinary_plus


def test_degree_one_moduli_ordinary_and_supersingular(f3, f4):
    for ctx in (f3, f4, make_field(2)):
        for m in irreducible_enumerate(ctx, 1):
            rep = hasse_witt(m)
            assert rep.g == rep.lambda_ == 0
            assert rep.ordinary and rep.supersingular
            assert rep.defects == [] and rep.defects_plus == []


def test_is_ordinary_agrees_with_report(f3, m_headline):
    assert is_ordinary(m_headline) == (False, 13)
    assert is_ordinary_plus(m_headline) == (True, None)
    for m in irreducible_enumerate(f3, 2):
        assert is_ordinary(m) == (True, None)
        assert is_ordinary_plus(m) == (True, None)


@pytest.mark.parametrize("p", [2, 5])
def test_is_ordinary_quadratics_at_other_primes(p):
    for m in irreducible_enumerate(make_field(p), 2):
        assert is_ordinary(m) == (True, None)
        assert is_ordinary_plus(m) == (True, None)


def test_z_bar_degrees(f3, m_headline):
    full, plus = z_bar(m_headline)
    assert full.u_degree == 18
    assert plus.u_degree == 6
    assert [c.coeffs for c in (full.coeffs[0], plus.coeffs[0])] == [(1,), (1,)]
    for m in irreducible_enumerate(f3, 1):
        zf, zp = z_bar(m)
        assert zf.u_degree == 0 and zp.u_degree == 0


@pytest.mark.parametrize("p,e,d", [(2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_orbit_and_naive_reports_are_identical(p, e, d):
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, d):
        assert hasse_witt(m, use_orbit=True) == hasse_witt(m, use_orbit=False)


@pytest.mark.parametrize("p,e,d", [(2, 1, 3), (2, 1, 4), (3, 1, 3), (2, 2, 2),
                                   (2, 2, 3), (5, 1, 2)])
@pytest.mark.parametrize("use_orbit", [True, False])
def test_first_defects_match_report(p, e, d, use_orbit):
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, d):
        rep = hasse_witt(m, use_orbit=use_orbit)
        want = tuple(fs[0].n if fs else None for fs in (rep.defects, rep.defects_plus))
        assert first_defects(m, use_orbit) == want


def _orbit_of(n, p, order):
    orbit, cur = set(), n
    while cur not in orbit:
        orbit.add(cur)
        cur = cur * p % order
    return frozenset(orbit)


def test_degree_stream_one_evaluation_per_orbit(monkeypatch, m_headline):
    # counted at the one degree reader, whichever route answers it
    calls = []
    real = invariants._reduced_degree

    def counted(n, *args):
        calls.append(n)
        return real(n, *args)

    monkeypatch.setattr(invariants, "_reduced_degree", counted)
    assert [n for n, _, _ in degree_stream(m_headline)] == list(range(1, 26))
    orbits = {_orbit_of(n, 3, 26) for n in range(1, 26)}
    assert sorted(map(min, orbits)) == calls

    calls.clear()
    assert first_defects(m_headline) == (13, None)
    assert len({_orbit_of(n, 3, 26) for n in calls}) == len(calls)
    calls.clear()
    list(degree_stream(m_headline, use_orbit=False))
    assert calls == list(range(1, 26))


class _SModOnly(ResidueSums):
    """A source held on s_mod: its spending never reaches the table."""

    def vanishes(self, i, n):
        self.spent = 0
        return super().vanishes(i, n)


def _route_sources(m):
    """Sources of m that answer on each route: s_mod and the log table."""
    by_table = ResidueSums(m)
    by_table.table = LogTable(m)
    return _SModOnly(m), by_table


def _degrees(n, m, sources):
    zero_class = n % (m.ctx.q - 1) == 0
    cap = target_degrees(m.ctx, m.d)[n] + zero_class
    return [invariants._reduced_degree(n, sums, cap, zero_class) for sums in sources]


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (3, 1, 1), (2, 1, 5), (3, 1, 3), (5, 1, 2),
                                   (7, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_table_degree_matches_square_and_multiply(p, e, d):
    for m in irreducible_enumerate(make_field(p, e), d):
        sources = _route_sources(m)
        for n in range(1, m.group_order):
            want = invariants._bbar_degree(n, m)
            assert _degrees(n, m, sources) == [want, want], (format_poly(m.poly), n)
        assert sources[0].table is None


@functools.lru_cache(maxsize=None)
def _moduli(p, e, d):
    return irreducible_enumerate(make_field(p, e), d)


def _coordinates(f, m):
    # F_p coordinates of a residue in the LogTable packing order
    p, e = m.ctx.p, m.ctx.e
    cs = list(f.coeffs) + [0] * (m.d - len(f.coeffs))
    return [c // p**t % p for c in cs for t in range(e)]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_log_table_matches_s_mod_on_random_moduli(data):
    p, e, d = data.draw(st.sampled_from([(2, 1, 2), (2, 1, 6), (3, 1, 2), (3, 1, 4), (5, 1, 3),
                                         (7, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]))
    m = data.draw(st.sampled_from(_moduli(p, e, d)))
    n = data.draw(st.integers(1, m.group_order - 1))
    sources = _route_sources(m)
    table = sources[1].table
    for i in range(d):
        assert (table.coordinates(table.power_sum(i, n))
                == _coordinates(s_mod(i, n, m), m)), (format_poly(m.poly), i, n)
    want = invariants._bbar_degree(n, m)
    assert _degrees(n, m, sources) == [want, want]


def _count_tables(monkeypatch):
    built = []
    real = powersums.LogTable

    def counted(m):
        built.append(m)
        return real(m)

    monkeypatch.setattr(powersums, "LogTable", counted)
    return built


def test_log_table_is_built_once_the_products_reach_its_size(monkeypatch, f3, f4):
    built = _count_tables(monkeypatch)
    moduli = irreducible_enumerate(f3, 3)
    reports = [hasse_witt(m) for m in moduli]
    assert built == moduli
    assert reports == [hasse_witt(m, use_orbit=False) for m in moduli]

    # witness pass on the first sextic over F_4: stops at n = 42, no table
    sextic = next(Modulus(f) for f in monic_enumerate(f4, 6) if is_irreducible(f))
    built.clear()
    assert first_defects(sextic) == (10, 42)
    assert built == []
    assert first_defects(sextic, use_orbit=False) == (10, 42)

    # an ordinary cubic over F_7 is scanned to the end, with one table
    cubic = Modulus(parse_poly("T^3+T+1", make_field(7)))
    built.clear()
    assert first_defects(cubic) == (None, None)
    assert built == [cubic]
    assert first_defects(cubic, use_orbit=False) == (None, None)


def test_log_table_certifies_its_generator(monkeypatch, f3, m_headline):
    monkeypatch.setattr(powersums, "_least_primitive", lambda m: FqPoly.constant(f3, 2))
    with pytest.raises(InternalError, match="bijection"):
        LogTable(m_headline)


def test_degree_stream_cost_ceiling(monkeypatch, m_headline):
    built = _count_tables(monkeypatch)
    cost = residue_cost(m_headline)
    assert cost == 26 * (3 + 1)
    with pytest.raises(CostCeilingError, match="budget"):
        hasse_witt(m_headline, budget=cost - 1)
    with pytest.raises(CostCeilingError, match="budget"):
        first_defects(m_headline, budget=cost - 1)
    assert built == []
    assert hasse_witt(m_headline, budget=cost) == hasse_witt(m_headline)


@pytest.mark.parametrize("p,e,d", [(3, 1, 3), (2, 2, 2), (2, 1, 4), (5, 1, 2)])
def test_verify_identities_pass(p, e, d):
    ctx = make_field(p, e)
    assert all(c.passed for c in verify_identities(ctx, d))


def test_verify_identities_trivial_nonzero_class_at_q2(f2):
    # every exponent is zero-class at q = 2, the nonzero-class sum is empty
    checks = {c.name: c for c in verify_identities(f2, 4)}
    assert checks["lemma31-nonzero-sum"].passed


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_all_suites_pass_at_3_3(name, f3):
    assert all(c.passed for c in run_verify_suite(name, f3, 3))


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_all_suites_pass_at_4_2(name, f4):
    assert all(c.passed for c in run_verify_suite(name, f4, 2))


def test_unknown_suite_rejected(f3):
    with pytest.raises(OutOfRangeError):
        run_verify_suite("nope", f3, 2)


def test_structural_bounds_on_reports(f3, f4):
    configs = [(f3, 2), (f3, 3), (f4, 2), (make_field(2), 3)]
    for ctx, d in configs:
        for m in irreducible_enumerate(ctx, d):
            rep = hasse_witt(m)
            assert 0 <= rep.lambda_plus <= rep.lambda_ <= rep.g
            assert rep.lambda_plus <= rep.g_plus <= rep.g
            assert rep.ordinary == (rep.lambda_ == rep.g) == (not rep.defects)
            assert rep.ordinary_plus == (rep.lambda_plus == rep.g_plus)
            assert rep.supersingular == (rep.lambda_ == 0)
            assert rep.g - rep.lambda_ == \
                sum(f.target - f.actual for f in rep.defects)
            zf, zp = z_bar(m)
            assert zf.u_degree == rep.lambda_
            assert zp.u_degree == rep.lambda_plus


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2)])
def test_structural_bounds_at_larger_extensions(p, e):
    # spot-check the q = 8 and q = 9 paths end to end on two moduli each
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, 2)[:2]:
        rep = hasse_witt(m)
        assert rep == hasse_witt(m, use_orbit=False)
        assert 0 <= rep.lambda_plus <= rep.lambda_ <= rep.g
        assert not rep.ordinary  # no extension field is ordinary at d = 2
        zf, zp = z_bar(m)
        assert zf.u_degree == rep.lambda_
        assert zp.u_degree == rep.lambda_plus


def test_ordinary_implies_exact_degrees_match(f3):
    # on an ordinary modulus the reduced and exact degrees coincide
    from carlitz_hw import b_poly
    m = Modulus(parse_poly("T^3+T^2+2", f3))
    rep = hasse_witt(m)
    assert rep.ordinary
    for n in range(1, 26):
        assert b_poly(n, f3, m=m).u_degree == b_poly(n, f3).u_degree

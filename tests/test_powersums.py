import importlib
import inspect
import pkgutil
import random

import pytest

import carlitz_hw
from carlitz_hw import (
    FqPoly,
    Modulus,
    f_poly,
    format_poly,
    irreducible_enumerate,
    make_field,
    polyring,
    powersums,
    s1_closed_form,
    s_exact,
    s_mod,
)
from carlitz_hw.digits import ell, gekeler_degree_bound
from carlitz_hw.errors import (
    ClosedFormWindowError,
    CostCeilingError,
    InternalError,
    OutOfRangeError,
    PrimeFieldOnlyError,
)
from carlitz_hw.polyring import is_irreducible, least_primitive, monic_enumerate, residue_pow
from carlitz_hw.powersums import LogTable, RootSums, residue_field
from conftest import add_coordinates, coordinates


def _s_oracle(i, n, ctx):
    # brute force with repeated multiplication only (independent of __pow__)
    total = FqPoly.zero(ctx)
    for a in monic_enumerate(ctx, i):
        acc = FqPoly.one(ctx)
        for _ in range(n):
            acc = acc * a
        total = total + acc
    return total


def test_s_zero_is_one(f3):
    for n in (1, 5, 17, 100):
        assert s_exact(0, n, f3) == FqPoly.one(f3)


def test_s_exact_known_values(f3):
    assert format_poly(s_exact(1, 5, f3)) == "2*T^3+T"
    assert s_exact(2, 5, f3).is_zero()
    assert format_poly(s_exact(1, 8, f3)) == "2*T^6+2*T^4+2*T^2+2"
    assert format_poly(s_exact(2, 8, f3)) == "T^6+T^4+T^2"


@pytest.mark.parametrize("p,i,top", [(2, 1, 24), (2, 2, 16), (3, 1, 20), (3, 2, 12), (5, 1, 12)])
def test_s_exact_matches_repeated_multiplication(p, i, top):
    ctx = make_field(p)
    for n in range(1, top + 1):
        assert s_exact(i, n, ctx) == _s_oracle(i, n, ctx), (p, i, n)


def test_s_exact_rejects_bad_args(f3):
    with pytest.raises(OutOfRangeError):
        s_exact(-1, 3, f3)
    with pytest.raises(OutOfRangeError):
        s_exact(1, 0, f3)


def test_cost_ceiling(monkeypatch, f3):
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "10")
    with pytest.raises(CostCeilingError):
        s_exact(3, 10**6, f3)
    # the default budget allows the same arguments to start (keep n small here)
    monkeypatch.delenv("CARLITZ_HW_BUDGET")
    s_exact(1, 64, f3)


def test_a_refused_n_past_4300_digits_is_named_by_its_digit_count(f3):
    # the budget's what string names n as the error names its cost, since
    # str() refuses an int of more than 4300 digits
    with pytest.raises(CostCeilingError, match=r"s_exact\(i=1, n=<5001-digit integer>\)"):
        s_exact(1, 10**5000, f3)


def test_a_cost_whose_power_is_past_2_to_the_20_bits_is_refused_at_any_budget(monkeypatch, f3):
    # q^i is named, not built, and its cost is above the largest budget
    # int() parses, 4300 nines
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "9" * 4300)
    assert powersums.exact_cost(99999999999, 2, f3) == "3^99999999999 * 199999999999"
    with pytest.raises(CostCeilingError, match=r"^s_exact\(i=99999999999, n=2\) estimated "
                                               r"cost 3\^99999999999 \* 199999999999 exceeds"):
        s_exact(99999999999, 2, f3)


def test_no_library_function_takes_a_budget():
    # the budget is one setting, CARLITZ_HW_BUDGET, read by check_budget alone
    modules = [carlitz_hw] + [importlib.import_module(f"carlitz_hw.{info.name}")
                              for info in pkgutil.iter_modules(carlitz_hw.__path__)]
    checked = set()
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("carlitz_hw"):
                continue
            attrs = [k for k in vars(obj) if not k.startswith("_")] if isinstance(obj, type) else []
            for f in filter(callable, [obj] + [getattr(obj, k) for k in attrs]):
                try:
                    params = inspect.signature(f).parameters
                except ValueError:  # an exception class with the builtin __init__
                    continue
                assert "budget" not in params, (module.__name__, name)
                checked.add(f)
    assert {powersums.RootSums.of, powersums.check_budget, carlitz_hw.scan_degree} <= checked
    assert not hasattr(carlitz_hw.cli, "_budget")


def test_s_mod_equals_reduced_exact(f3, f4, m_headline):
    for i in range(3):
        for n in range(1, 26):
            assert s_mod(i, n, m_headline) == s_exact(i, n, f3) % m_headline.poly
    for m in irreducible_enumerate(f4, 2):
        for i in range(2):
            for n in range(1, 15):
                assert s_mod(i, n, m) == s_exact(i, n, f4) % m.poly


def test_s_mod_known_residue(f3, m_headline):
    # 2T^3+T = 2(T+2)+T = 1 modulo T^3+2T+1
    assert format_poly(s_mod(1, 5, m_headline)) == "1"


def test_s_mod_cor31_witness_vanishes(f4):
    # n = (q-p) + pq = 10 at q = 4: the degree-one sum is 0 mod every quadratic
    for m in irreducible_enumerate(f4, 2):
        assert s_mod(1, 10, m).is_zero()
    # indeed it vanishes identically
    assert s_exact(1, 10, f4).is_zero()


def test_s_mod_range_checks(f3, m_headline):
    with pytest.raises(OutOfRangeError):
        s_mod(3, 5, m_headline)
    with pytest.raises(OutOfRangeError):
        s_mod(1, 26, m_headline)
    with pytest.raises(OutOfRangeError):
        s_mod(1, 0, m_headline)
    with pytest.raises(OutOfRangeError, match="n=<5001-digit integer> outside"):
        s_mod(1, 10**5000, m_headline)  # str() refuses n


def test_s_mod_cost_ceiling(monkeypatch, f3, m_headline):
    # mod_cost = q^i * bit_length(n) * d^2 is checked as s_exact checks exact_cost
    cost = powersums.mod_cost(2, 25, f3, 3)
    assert cost == 9 * 5 * 9
    want = s_mod(2, 25, m_headline)
    assert want == s_exact(2, 25, f3) % m_headline.poly
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost - 1))
    with pytest.raises(CostCeilingError) as info:
        s_mod(2, 25, m_headline)
    assert str(info.value) == "s_mod(i=2, n=25) estimated cost 405 exceeds budget 404"
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost))
    assert s_mod(2, 25, m_headline) == want


def test_s1_closed_form_examples(f3):
    assert format_poly(s1_closed_form(5, f3)) == "2*T^3+T"
    assert format_poly(s1_closed_form(4, f3)) == "2"
    assert format_poly(s1_closed_form(2, f3)) == "2"


# from p = 7 on the window reaches C(b, k) >= p
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_s1_closed_form_matches_oracle_on_window(p):
    ctx = make_field(p)
    checked = 0
    for b in range(p):
        for a in range(p):
            n = a + b * p
            if not p - 1 <= a + b < 2 * (p - 1):
                continue
            assert s1_closed_form(n, ctx) == s_exact(1, n, ctx), n
            checked += 1
    assert checked > 0


def test_s1_closed_form_window_enforced(f3, f4):
    with pytest.raises(ClosedFormWindowError):
        s1_closed_form(8, f3)  # digit sum 4 = 2(p-1) fails the formula
    with pytest.raises(ClosedFormWindowError):
        s1_closed_form(1, f3)  # digit sum below p-1
    with pytest.raises(ClosedFormWindowError):
        s1_closed_form(9, f3)  # three digits
    with pytest.raises(PrimeFieldOnlyError):
        s1_closed_form(5, f4)


def test_f_poly_values(f3):
    assert f_poly(1, f3) == FqPoly.one(f3) + s_exact(1, 1, f3)
    assert format_poly(f_poly(8, f3)) == "2*T^6+2*T^4+2*T^2"
    # exponents with vanishing degree-one sum give the constant 1
    f4 = make_field(2, 2)
    assert f_poly(10, f4) == FqPoly.one(f4)


def _shift_arg(f, alpha):
    # f(T + alpha)
    ctx = f.ctx
    shift = FqPoly(ctx, [alpha, 1])
    acc = FqPoly.zero(ctx)
    for c in reversed(f.coeffs):
        acc = acc * shift + FqPoly(ctx, [c])
    return acc


def _scale_arg(f, alpha):
    # f(alpha * T)
    ctx = f.ctx
    out = []
    power = 1
    for c in f.coeffs:
        out.append(ctx.mul(c, power))
        power = ctx.mul(power, alpha)
    return FqPoly(ctx, out)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_f_poly_symmetries_zero_class(p):
    ctx = make_field(p)
    q = ctx.q
    for n in range(q - 1, 61, q - 1):
        f = f_poly(n, ctx)
        for alpha in range(q):
            assert _shift_arg(f, alpha) == f, (p, n, alpha)
            if alpha:
                assert _scale_arg(f, alpha) == f, (p, n, alpha)
        padded = list(f.coeffs) + [0] * (n + 1 - len(f.coeffs))
        assert FqPoly(ctx, list(reversed(padded))) == f, (p, n)


def test_frobenius_twist_of_power_sums(f3, m_headline):
    order = m_headline.group_order
    for i in range(3):
        for n in range(1, order):
            n2 = 3 * n % order
            lhs = s_mod(i, n2, m_headline)
            rhs = (s_mod(i, n, m_headline) ** 3) % m_headline.poly
            assert lhs == rhs, (i, n)


@pytest.mark.parametrize("p,e,d", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_vanishing_iff_at_prime_fields_forward_otherwise(p, e, d):
    ctx = make_field(p, e)
    q = ctx.q
    for n in range(1, q**d - 1):
        l_n = ell(n, q)
        for i in range(d):
            s = s_exact(i, n, ctx)
            if l_n < i * (q - 1):
                assert s.is_zero(), (p, e, i, n)
            elif e == 1:
                assert not s.is_zero(), (p, e, i, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_degree_law_at_prime_fields(p):
    ctx = make_field(p)
    for n in range(1, 41):
        for i in range(4):
            assert s_exact(i, n, ctx).degree == gekeler_degree_bound(i, n, ctx)


def test_degree_bound_at_extension_field(f4):
    for n in range(1, 15):
        for i in range(3):
            assert s_exact(i, n, f4).degree <= gekeler_degree_bound(i, n, f4)


@pytest.mark.parametrize("p,e,d", [(2, 1, 6), (3, 1, 3), (5, 1, 1), (2, 2, 3),
                                   (3, 2, 2), (2, 3, 2)])
def test_log_table_exponent_orbits(p, e, d):
    # each orbit of n -> q*n but {0} with its size, the least member of its
    # class under n -> p*n and its target, by brute force; p^(e*d) = 1 mod
    # q^d - 1, and for e > 1 the orbits under p join those under q
    table = residue_field(make_field(p, e), d)
    order, q = table.order, p**e
    orbits = {frozenset(n * q**j % order for j in range(d)) for n in range(1, order)}
    listed = list(zip(table.orbit_n, table.orbit_size,
                      [table.class_n[c] for c in table.orbit_class], table.orbit_target))
    assert listed == sorted(
        (min(o), len(o), min(n * p**j % order for n in o for j in range(e)),
         ell(min(o), q) // (q - 1) - (min(o) % (q - 1) == 0))
        for o in orbits)


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (3, 1, 1), (2, 1, 5), (3, 1, 3), (5, 1, 2),
                                   (7, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2),
                                   (37, 1, 2), (2, 1, 12), (2, 2, 5), (2, 3, 3)])
def test_log_table_walk_matches_residue_pow(p, e, d):
    # the walk takes each entry from the one before it; square-and-multiply
    # computes every T^k mod m0 on its own
    ctx = make_field(p, e)
    m0 = least_primitive(ctx, d)
    table, m = LogTable(ctx, m0), Modulus(FqPoly(ctx, m0))
    t = FqPoly.gen(ctx)
    assert table.exp == [table.pack(residue_pow(t, k, m).coeffs) for k in range(table.order)]


@pytest.mark.parametrize("e,d", [(1, d) for d in range(1, 11)] + [(2, d) for d in range(1, 6)]
                         + [(3, d) for d in range(1, 4)])
def test_characteristic_two_zech_flips_the_constant_bit(e, d):
    # at p = 2 a residue is its d*e coordinate bits, so 1 + g^k flips the
    # T^0 bit of exp[k]
    table = residue_field(make_field(2, e), d)
    log = {x: k for k, x in enumerate(table.exp)}
    assert table.zech == [log.get(x ^ 1) for x in table.exp]  # None at exp[k] = 1


@pytest.mark.parametrize("e,d", [(2, 6), (1, 13)])
def test_characteristic_two_vanishes_matches_s_mod(e, d):
    # where a field per coordinate wide enough for q^d residues took 156 and
    # 182 bits; sampled moduli, i and n against the sums reduced mod m
    ctx = make_field(2, e)
    table = residue_field(ctx, d)
    rng = random.Random(d)
    seen = set()
    for codes in rng.sample(sorted(table.roots), 2):
        m, view = Modulus(FqPoly(ctx, codes)), RootSums(table, codes)
        for _ in range(5):
            i, n = rng.randrange(d), rng.randrange(1, table.order)
            got = view.vanishes(range(i, i + 1), n)
            assert got == s_mod(i, n, m).is_zero(), (codes, i, n)
            seen.add(got)
    assert seen == {False, True}


@pytest.mark.parametrize("p,d", [(3, 6), (5, 5), (11, 4), (13, 4)])
def test_odd_characteristic_fields_hold_the_widest_read_in_one_word(p, d):
    # a field holds the partial sum over every degree below d,
    # (q^d - 1)/(q - 1) residues of coordinates at most p - 1, so that the
    # packed sums of these fields fit one 63-bit word, where a field wide
    # enough for q^d residues took 66, 70, 72 and 76 bits; at (3, 6) that
    # widest read, P_5 = 1 + s_1(n) + ... + s_5(n) at every zero-class n,
    # against its terms added coordinate by coordinate
    table = residue_field(make_field(p), d)
    width = table.mask.bit_length()
    assert width == ((p**d - 1) // (p - 1) * (p - 1)).bit_length()
    assert d * width <= 63
    if p == 3:
        view = RootSums(table, next(iter(table.roots)))
        top = len(table.shifts) * width
        for n in range(p - 1, table.order, p - 1):
            packed = view.packed_sum(range(d), n)
            terms = [table.exp[la * n % table.order] for la in view.range_logs(range(d))]
            assert packed >> top == 0, n
            assert coordinates(table, packed) == add_coordinates(table, terms), n


def _order_of_t(m):
    """The multiplicative order of T mod m by repeated multiplication and
    division, None when T = 0 mod m."""
    t = FqPoly.gen(m.ctx) % m.poly
    if t.is_zero():
        return None
    x, k = t, 1
    while x != FqPoly.one(m.ctx):
        x, k = x * t % m.poly, k + 1
    return k


_ROOT_CASES = ([(2, 1, d) for d in range(1, 9)]
               + [(3, 1, d) for d in range(1, 6)]
               + [(5, 1, 3), (7, 1, 3), (3, 2, 2), (2, 3, 2)]
               + [(2, 2, d) for d in range(1, 5)]
               # every code of F_8, F_9, F_25 and F_13 is a coefficient here
               + [(2, 3, 3), (3, 2, 3), (5, 2, 2), (13, 1, 2)])


@pytest.mark.parametrize("p,e,d", _ROOT_CASES)
def test_least_primitive_matches_brute_force(p, e, d):
    # the first monic irreducible, by Ben-Or's test, at which T has order q^d - 1
    ctx = make_field(p, e)
    want = next(f for f in monic_enumerate(ctx, d)
                if is_irreducible(f) and _order_of_t(Modulus(f)) == ctx.q**d - 1)
    assert least_primitive(ctx, d) == want.coeffs


def _is_root(table, coeffs, k):
    """Whether the polynomial with these F_q codes vanishes at g^k, its terms
    added coordinate by coordinate mod p."""
    return not any(add_coordinates(table, [table.exp[(table.const_logs[c] + j * k) % table.order]
                                           for j, c in enumerate(coeffs) if c]))


@pytest.mark.parametrize("p,e,d", _ROOT_CASES)
def test_root_enumeration_matches_irreducible_enumerate(p, e, d):
    # minimal polynomials of one root per Frobenius orbit, in code order
    ctx = make_field(p, e)
    table = residue_field(ctx, d)
    roots = list(table.roots.items())
    assert [coeffs for coeffs, _ in roots] == [m.poly.coeffs
                                               for m in irreducible_enumerate(ctx, d)]
    for coeffs, k in roots:
        if k is None:  # T, whose root 0 has no log
            assert (d, coeffs) == (1, (0, 1))
            continue
        # m(g^k) = 0 in the table, and every conjugate g^(k q^j) has the same m
        assert _is_root(table, coeffs, k), (coeffs, k)
        assert {table.minimal_polynomial(k * ctx.q**j % table.order)
                for j in range(d)} == {coeffs}, (coeffs, k)
    assert (roots[0][1] is None) == (d == 1)


@pytest.mark.parametrize("p,e,d", _ROOT_CASES + [(2, 2, 6), (7, 1, 4), (2, 1, 10)])
def test_walked_codes_are_the_minimal_polynomials(p, e, d):
    # the walk multiplies out one minimal polynomial per orbit of moduli and
    # maps its codes to the others; every listed modulus must be the product
    # at its own root.  (2, 2, 6) and (3, 2, 3) take scalings, the Frobenius
    # and translations, (3, 2, 3) at odd p with e > 1, and (2, 1, 10)
    # translations only
    table = residue_field(make_field(p, e), d)
    for codes, k in table.roots.items():
        assert codes == ((0, 1) if k is None else table.minimal_polynomial(k)), k


@pytest.mark.parametrize("p,e,d,orbits,shifts", [
    (7, 1, 3, 4, 16), (7, 1, 4, 16, 84), (2, 1, 6, 5, 4), (2, 2, 6, 31, 82),
    (3, 1, 4, 4, 6), (13, 1, 3, 6, 56), (3, 2, 2, 1, 2), (2, 3, 3, 1, 7),
    (1009, 1, 1, 1, 1)])
def test_log_table_multiplies_one_minimal_polynomial_per_orbit(monkeypatch, p, e, d,
                                                               orbits, shifts):
    # every other modulus of an orbit takes its codes from a coefficient map,
    # and a class under the scalings and the Frobenius from one Taylor shift
    # f(X + 1) of d(d + 1)/2 additions; at (1009, 1, 1) a walk that took the
    # whole group, of order about 10^6, per orbit would make far more
    ctx = make_field(p, e)
    m0 = least_primitive(ctx, d)
    calls, adds = [], []
    real, add = LogTable.minimal_polynomial, ctx.add

    def counted(table, k):
        calls.append(k)
        return real(table, k)

    def counted_add(a, b):
        adds.append(a)
        return add(a, b)

    monkeypatch.setattr(LogTable, "minimal_polynomial", counted)
    monkeypatch.setattr(ctx, "add", counted_add)
    table = LogTable(ctx, m0)
    assert len(set(calls)) == len(calls) == len(set(table.first)) == orbits
    assert len(adds) == shifts * d * (d + 1) // 2


def test_root_cases_meet_a_zero_coefficient():
    # T^3 + 2T + 1 over F_3: its product meets a coefficient 0, whose log is None
    assert (3, 1, 3) in _ROOT_CASES
    assert (1, 2, 0, 1) in residue_field(make_field(3), 3).roots


@pytest.mark.parametrize("p,e,d", [(2, 1, 4), (3, 1, 4), (2, 2, 3), (5, 1, 2)])
def test_minimal_polynomial_of_a_subfield_root_is_a_power(p, e, d):
    # for theta = g^k in F_(q^s), s < d, the product over d conjugates is
    # f^(d/s), f the irreducible of degree s with root theta; (T + 1)^4 over
    # F_2 has zero coefficients midway through the product
    ctx = make_field(p, e)
    table = residue_field(ctx, d)
    for k in range(table.order):
        s = next(s for s in range(1, d + 1) if k * ctx.q**s % table.order == k)
        if s < d:
            [f] = [m.poly for m in irreducible_enumerate(ctx, s)
                   if _is_root(table, m.poly.coeffs, k)]
            assert table.minimal_polynomial(k) == (f ** (d // s)).coeffs, k


@pytest.mark.parametrize("p,e,d", _ROOT_CASES)
def test_const_codes_invert_const_logs(p, e, d):
    # the logs of F_q^* are the q - 1 multiples of N/(q - 1)
    ctx = make_field(p, e)
    table = residue_field(ctx, d)
    step = table.order // (ctx.q - 1)
    assert sorted(table.const_codes) == list(range(0, table.order, step))
    assert sorted(table.const_codes.values()) == list(range(1, ctx.q))
    for c, code in table.const_codes.items():
        assert table.const_logs[code] == c


@pytest.mark.parametrize("p,e,d", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_irreducibles_walks_root_orbits_only_when_q_is_not_p(monkeypatch, p, e, d):
    # the table walks the orbits under p and, when q != p, those under q,
    # and lists its roots from the orbits of size d, walking none more
    ctx = make_field(p, e)
    m0 = least_primitive(ctx, d)
    walks = []
    real_walk = powersums._orbit_reps

    def counted_walk(mult, order):
        walks.append(mult)
        return real_walk(mult, order)

    monkeypatch.setattr(powersums, "_orbit_reps", counted_walk)
    table = LogTable(ctx, m0)
    assert walks == ([p] if e == 1 else [p, p**e])
    list(table.roots.items())
    assert walks == ([p] if e == 1 else [p, p**e])


@pytest.mark.parametrize("p,e,d", [(3, 1, 3), (2, 2, 3), (7, 1, 3), (2, 1, 4)])
def test_minimal_polynomial_rejects_a_coefficient_outside_fq(p, e, d):
    # with a wrong log of -1 the product of X - theta^(q^j) leaves F_q
    table = residue_field(make_field(p, e), d)
    k = list(table.roots.items())[0][1]
    table.const_logs[p - 1] = 1
    with pytest.raises(InternalError, match="coefficient outside F_"):
        table.minimal_polynomial(k)


@pytest.mark.parametrize("p,e,d", [(2, 1, 12), (2, 2, 6), (3, 1, 7), (7, 1, 4), (3, 2, 3)])
def test_least_primitive_takes_no_power_at_a_root(monkeypatch, p, e, d):
    # a candidate with a root c in F_q^* has the factor T - c, and at a
    # binomial T^d + a, T^d lies in F_q, so the order of T is never tested
    # there; T^6 + [0,1] over F_4 has no root but is a binomial
    ctx = make_field(p, e)
    candidates, powered = [], []
    real_rows, real_power = polyring.reduction_rows, polyring.power

    def rows(ctx_, coeffs):
        candidates.append(tuple(coeffs))
        return real_rows(ctx_, coeffs)

    def counted_power(*args):
        powered.append(candidates[-1])
        return real_power(*args)

    monkeypatch.setattr(polyring, "reduction_rows", rows)
    monkeypatch.setattr(polyring, "power", counted_power)
    m0 = least_primitive(ctx, d)

    def value(coeffs, c):
        v = 0
        for a in reversed(coeffs):
            v = ctx.add(ctx.mul(v, c), a)
        return v

    assert powered and powered[-1] == m0
    assert all(value(f, c) for f in powered for c in range(1, ctx.q))
    assert all(any(f[1:d]) for f in powered)

import functools
import json
import re
from types import SimpleNamespace

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
from carlitz_hw.digits import target_degree
from carlitz_hw.errors import (
    CostCeilingError,
    InternalError,
    OutOfRangeError,
    OverflowLimitError,
)
from carlitz_hw import invariants, oracle, powersums
from carlitz_hw.invariants import SUITE_NAMES, Defect, first_defects
from carlitz_hw.polyring import (
    FqPoly,
    format_poly,
    is_irreducible,
    least_primitive,
    monic_enumerate,
)
from carlitz_hw.powersums import LogTable, RootSums, residue_cost, residue_field, s_mod
from conftest import (
    add_coordinates,
    coordinates,
    expand_orbits,
    full_pass_stream,
    reduced_degree,
    spy_reads,
)


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


def _stream_defects(stream, q1):
    """The defects and the zero-class defects of a degree stream."""
    defects = [Defect(n, tgt, deg) for n, deg, tgt in stream if deg != tgt]
    return defects, [f for f in defects if f.n % q1 == 0]


def _firsts(defects, defects_plus):
    """first_defects as read off the defect lists of a report."""
    return tuple(fs[0].n if fs else None for fs in (defects, defects_plus))


# (3, 1, 4) has defective orbits shorter than d at odd q, and at (2, 2, 3)
# the members of several defective orbits interleave
@pytest.mark.parametrize("p,e,d", [(2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2), (3, 1, 4),
                                   (2, 2, 3)])
def test_orbit_and_naive_reports_are_identical(naive_stream, p, e, d):
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, d):
        naive = naive_stream(m)
        assert expand_orbits(m, full_pass_stream(RootSums.of(m))) == naive
        rep = hasse_witt(m)
        assert rep.lambda_ == sum(deg for _, deg, _ in naive)
        assert rep.lambda_plus == sum(deg for n, deg, _ in naive if n % (ctx.q - 1) == 0)
        assert (rep.defects, rep.defects_plus) == _stream_defects(naive, ctx.q - 1)


@pytest.mark.parametrize("p,e,d", [(2, 1, 3), (2, 1, 4), (3, 1, 3), (2, 2, 2),
                                   (2, 2, 3), (5, 1, 2)])
@pytest.mark.parametrize("use_orbit", [True, False])
def test_first_defects_match_report(naive_stream, p, e, d, use_orbit):
    # against the report of the orbit engine, and against the naive stream
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, d):
        if use_orbit:
            rep = hasse_witt(m)
            want = _firsts(rep.defects, rep.defects_plus)
        else:
            want = _firsts(*_stream_defects(naive_stream(m), ctx.q - 1))
        assert first_defects(RootSums.of(m)) == want


def _orbit_of(n, p, order):
    orbit, cur = set(), n
    while cur not in orbit:
        orbit.add(cur)
        cur = cur * p % order
    return frozenset(orbit)


@functools.lru_cache(maxsize=None)
def _brute_caps(p, e, d):
    """{least member: least digits.target_degree} over each class
    {n*p^k mod N}, n != 0, N = q^d - 1, one exponent at a time: the oracle
    of LogTable.caps."""
    ctx = make_field(p, e)
    order = ctx.q**d - 1
    classes = {_orbit_of(n, p, order) for n in range(1, order)}
    return {min(c): min(target_degree(k, ctx) for k in c) for c in classes}


def test_full_pass_one_evaluation_per_orbit(monkeypatch, m_headline, f4):
    # full mode, counted at the level walk: the least members of the classes
    # whose degrees it returns, in ascending n, one degree per class, the
    # caps list itself when none fell; the early-exit pass, counted at the
    # reader: one (degrees, frob) per class under p it visits, at its cap,
    # and none at target <= 0
    calls, reads = [], []
    real_walk = invariants._level_degrees

    def walked(sums):
        degrees, fell = real_walk(sums)
        table = sums.table
        assert len(degrees) == len(table.class_n)
        assert fell == (degrees is not table.class_cap)
        assert fell == (degrees != table.class_cap)
        calls.extend(table.class_n)
        return degrees, fell

    monkeypatch.setattr(invariants, "_level_degrees", walked)
    stream = full_pass_stream(RootSums.of(m_headline))
    assert len(stream) == len(RootSums.of(m_headline).table.orbit_n)
    assert [n for n, _, _ in expand_orbits(m_headline, stream)] == list(range(1, 26))
    orbits = {_orbit_of(n, 3, 26) for n in range(1, 26)}
    assert sorted(map(min, orbits)) == calls

    spy_reads(monkeypatch, lambda sums, degrees, n, _: reads.append((degrees, n)))
    assert first_defects(RootSums.of(m_headline)) == (13, None)
    assert len({_orbit_of(n, 3, 26) for _, n in reads}) == len(reads)
    # 1, 2 and 4 are at target 0, and past 13, 17 is not zero-class
    assert reads == [(range(1, 2), 5), (range(1, 2), 7), (range(2), 8),
                     (range(1, 2), 13), (range(2), 14)]

    # over F_4 the full pass has one item per orbit of n -> 4n mod 15 and
    # reads one degree per orbit of n -> 2n, the union of one or two of them
    quadratic = irreducible_enumerate(f4, 2)[0]
    calls.clear()
    assert [n for n, _, _, _ in full_pass_stream(RootSums.of(quadratic))] == [1, 2, 3, 5, 6, 7, 10, 11]
    assert calls == sorted(map(min, {_orbit_of(n, 2, 15) for n in range(1, 15)})) == [1, 3, 5, 7]
    # 10, at target 1, is a defect with no read: 5, the least of its class
    # under n -> 2n, is at target 0, so the class is at degree 0; 10 is the
    # universal defect n*
    reads.clear()
    assert first_defects(RootSums.of(quadratic)) == (10, None)
    assert reads == [(range(1, 2), 7)]


def _early_exit_reads(table, first, first_plus):
    """The orbits the early-exit pass visits at a modulus with these least
    defects, those at target >= 1 up to first_plus, past first in the zero
    class only, and its reads there: one (degrees, frob) per class under p,
    in the order first visited, at an orbit whose target is the class's
    brute-force cap, and none elsewhere."""
    ctx = table.ctx
    q1 = ctx.q - 1
    caps = _brute_caps(ctx.p, ctx.e, table.d)
    visited, reads = [], []
    for n, c, tgt in zip(table.orbit_n, table.orbit_class, table.orbit_target):
        frob = table.class_n[c]
        zero_class = n % q1 == 0
        if (tgt < 1 or (first is not None and n > first and not zero_class)
                or (first_plus is not None and n > first_plus)):
            continue
        visited.append(n)
        read = (range(0 if zero_class else tgt, tgt + 1), frob)
        if tgt == caps[frob] and read not in reads:
            reads.append(read)
    return visited, reads


@pytest.mark.parametrize("p,e,d,visits,total", [(2, 2, 6, 217, 124), (3, 2, 3, 36, 24)])
def test_early_exit_reads_one_pair_per_class_and_target(monkeypatch, p, e, d, visits, total):
    # at every orbit head scan classifies, the early-exit pass makes
    # exactly the reads of its visits, with its exits taken from the full
    # pass: at e > 1 an orbit under q shares the read of its class under
    # p, made at the class's cap, and an orbit above the cap is read
    # nowhere, so there are fewer reads than visits
    table = residue_field(make_field(p, e), d)
    reads = []
    spy_reads(monkeypatch, lambda sums, degrees, n, _: reads.append((degrees, n)))
    counts = [0, 0]
    for i, codes in enumerate(table.roots):
        if table.first[i] != i:
            continue
        sums = RootSums(table, codes)
        first, first_plus = invariants.defect_pass(sums, genus(table.ctx, d))[:2]
        reads.clear()
        assert first_defects(sums) == (first, first_plus), codes
        visited, want = _early_exit_reads(table, first, first_plus)
        assert reads == want, codes
        counts[0] += len(visited)
        counts[1] += len(reads)
    assert counts == [visits, total]


def test_early_exit_reads_each_class_once_at_its_cap():
    # at e > 1 a class under p holds orbits under q at different targets
    # (at (2, 2, 6) 138 classes hold two orbits at different targets): an
    # orbit above its class's cap is a defect with no read, and one at the
    # cap reads the flag of its class, shared by every orbit there.  The
    # moduli of the fields above exit before such a class is visited
    # twice, so a stub reads it here, whose flag depends on the range of
    # degrees alone, over orbit lists (n, class, target) at q = 4 where the
    # class of 1 holds targets 1 and 2, and so does the zero-class class of
    # 3: both caps are 1, and no read vanishes
    class Stub:
        table = SimpleNamespace(
            orbit_n=[1, 2, 3, 4, 5, 6, 9], orbit_class=[0, 0, 1, 0, 2, 1, 1],
            orbit_target=[1, 2, 1, 2, 0, 2, 2], class_n=[1, 3, 5], class_cap=[1, 1, 0],
            class_zero=[False, True, True])

        def vanishes(self, degrees, n):
            asked.append((degrees, n))
            return degrees.stop == 3

    asked = []
    assert first_defects(Stub()) == (2, 6)
    assert asked == [(range(1, 2), 1), (range(2), 3)]


class _SModOnly:
    """A source of m on square-and-multiply: s_mod, the oracle."""

    def __init__(self, m):
        self.m = m

    def vanishes(self, degrees, n):
        return _s_mod_sum(degrees, n, self.m).is_zero()


def _s_mod_sum(degrees, n, m):
    """The sum of s_mod(i, n, m) over i in degrees; s_mod(0, n, m) = 1."""
    total = FqPoly.zero(m.ctx)
    for i in degrees:
        total = total + s_mod(i, n, m)
    return total


def _route_sources(m):
    """Sources of m that answer on each route: s_mod and the log table."""
    return _SModOnly(m), RootSums.of(m)


def _degrees(n, m, sources):
    zero_class = n % (m.ctx.q - 1) == 0
    target = target_degree(n, m.ctx)
    return [reduced_degree(n, sums, target, zero_class) for sums in sources]


_NINE_FIELDS = [(2, 1, 1), (3, 1, 1), (2, 1, 5), (3, 1, 3), (5, 1, 2),
                (7, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]


# at (3, 1, 6) and (5, 1, 4) zero-class partial sums vanish at the target,
# and at (2, 2, 6) one degree is shared over orbits under q with different
# targets; there only the moduli scan classifies, one per orbit, are read
@pytest.mark.parametrize("p,e,d,every", [(*field, True) for field in _NINE_FIELDS]
                         + [(3, 1, 6, True), (5, 1, 4, True), (2, 2, 6, False)])
def test_level_walk_matches_the_naive_stream(monkeypatch, naive_stream, p, e, d, every):
    # full mode reads every degree level by level: its stream, its report
    # and its least defects against the per-exponent naive stream, bit for
    # bit, and its reads, exponent by exponent, against the top-down reads
    # of reduced_degree at the least member of each orbit under p, from
    # the brute-force cap of its class
    ctx = make_field(p, e)
    table = residue_field(ctx, d)
    reads = []
    spy_reads(monkeypatch, lambda sums, degrees, n, _: reads.append((n, degrees[0], degrees[-1])))
    for i, codes in enumerate(table.roots):
        if not every and table.first[i] != i:
            continue
        m, sums = Modulus(FqPoly(ctx, codes)), RootSums(table, codes)
        naive = naive_stream(m)
        defects = _stream_defects(naive, ctx.q - 1)
        reads.clear()
        first, first_plus, lam, lam_plus, _ = invariants.defect_pass(sums, genus(ctx, d))
        walked = sorted(reads)
        reads.clear()
        for r, cap in _brute_caps(p, e, d).items():
            reduced_degree(r, sums, cap, r % (ctx.q - 1) == 0)
        assert walked == sorted(reads), codes
        assert expand_orbits(m, full_pass_stream(sums)) == naive, codes
        assert (first, first_plus) == _firsts(*defects) == first_defects(sums), codes
        assert (lam, lam_plus) == (sum(deg for _, deg, _ in naive),
                                   sum(deg for n, deg, _ in naive if n % (ctx.q - 1) == 0))
        rep = hasse_witt(m)
        assert (rep.lambda_, rep.lambda_plus, rep.defects, rep.defects_plus) == (
            lam, lam_plus, *defects), codes


@pytest.mark.parametrize("p,e,d,message", [
    (2, 2, 4, "degree 2 exceeds target 1 at n=86 mod T^4+T^2+[0,1]*T+[1,0]"),
    (3, 2, 3, "degree 1 exceeds target 0 at n=102 mod T^3+T+[0,1]")], ids=["2-2-4", "3-2-3"])
def test_full_pass_checks_each_degree_against_its_target(monkeypatch, p, e, d, message):
    # with each class under p capped at the target of its least member, a
    # reader that finds no vanishing coefficient leaves the class there;
    # when e > 1 that can sit above the target of another orbit under q in
    # the class, which the full pass refuses (at e = 1 every class is one
    # orbit under q, so it cannot)
    monkeypatch.setattr(RootSums, "vanishing", lambda self, degrees, ns: [False] * len(ns))
    ctx = make_field(p, e)
    table = residue_field(ctx, d)
    table.class_cap = [tgt for n, c, tgt in zip(table.orbit_n, table.orbit_class,
                                                table.orbit_target) if n == table.class_n[c]]
    assert len(table.class_cap) == len(table.class_n)
    sums = RootSums(table, next(iter(table.roots)))
    with pytest.raises(InternalError, match=re.escape(message)):
        invariants.defect_pass(sums, genus(ctx, d))


def _reference_pass(sums, genera):
    """defect_pass as one loop over the orbits, each degree read on its own
    by reduced_degree from the orbit's own target at its own n, with no
    class, cap, bin or early return: the reference of the list form."""
    table = sums.table
    q1 = table.ctx.q - 1
    defective = []
    lam = lam_plus = 0
    for n, size, tgt in zip(table.orbit_n, table.orbit_size, table.orbit_target):
        deg = reduced_degree(n, sums, tgt, n % q1 == 0)
        lam += size * deg
        lam_plus += size * deg * (n % q1 == 0)
        if deg != tgt:
            defective.append((n, size, deg, tgt))
    first = defective[0][0] if defective else None
    first_plus = next((n for n, _, _, _ in defective if n % q1 == 0), None)
    assert ((first is None) == (lam == genera[0])
            and (first_plus is None) == (lam_plus == genera[1]))
    return first, first_plus, lam, lam_plus, defective


# named by p, e, d, the orbit heads and those where no class falls below
# its cap and every orbit is at its class's cap, so that defect_pass returns
# the table's cap sums at once (never at e > 1 here: there a class joins
# orbits at different targets, and the heads where nothing falls take the
# list path)
@pytest.mark.parametrize("p,e,d,heads,early", [
    (2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 1, 5, 3, 3), (3, 1, 3, 2, 1), (5, 1, 2, 1, 1),
    (7, 1, 2, 1, 1), (2, 2, 3, 2, 0), (3, 2, 2, 1, 0), (2, 3, 2, 1, 0),
    (3, 1, 6, 22, 8), (5, 1, 4, 10, 3), (2, 2, 6, 31, 0)])
def test_full_pass_matches_a_per_orbit_reference_loop(p, e, d, heads, early):
    # at every orbit head scan classifies: the list-form full pass, early
    # return included, against one read per orbit from its own target
    ctx = make_field(p, e)
    table = residue_field(ctx, d)
    genera = genus(ctx, d)
    counts = [0, 0]
    for i, codes in enumerate(table.roots):
        if table.first[i] != i:
            continue
        sums = RootSums(table, codes)
        got = invariants.defect_pass(sums, genera)
        assert got == _reference_pass(sums, genera), codes
        counts[0] += 1
        counts[1] += not invariants._level_degrees(sums)[1] and table.at_caps
    assert counts == [heads, early]


@pytest.mark.parametrize("p,e,d", _NINE_FIELDS)
def test_targets_and_zero_class_are_constant_on_exponent_orbits(p, e, d):
    # what the full pass rests on: the target is constant on every orbit of
    # n -> q*n, and the zero class on every orbit of n -> p*n
    ctx = make_field(p, e)
    q, order = ctx.q, ctx.q**d - 1
    for n in range(1, order):
        assert target_degree(n * q % order, ctx) == target_degree(n, ctx), n
        assert (n * p % order % (q - 1) == 0) == (n % (q - 1) == 0), n


@pytest.mark.parametrize("p,e,d", _NINE_FIELDS + [(2, 2, 6), (3, 2, 4)])
def test_class_caps_are_the_least_target_of_each_class(p, e, d):
    # LogTable.class_cap against brute force: the least target over each
    # class {n*p^k mod N}, n != 0, keyed by its least member; at e = 1 a
    # class is one orbit under q, and each cap is that orbit's own target
    table = residue_field(make_field(p, e), d)
    assert dict(zip(table.class_n, table.class_cap)) == _brute_caps(p, e, d)
    assert 0 not in table.class_n
    if e == 1:
        assert table.class_cap == table.orbit_target
        assert table.class_n == table.orbit_n
    # and the rest of the class lists: the size and the zero class of each
    # class, its bin, and the sums over the classes at their caps
    order, q1 = table.order, table.ctx.q - 1
    assert table.class_weight == [len(_orbit_of(r, p, order)) for r in table.class_n]
    assert table.class_zero == [r % q1 == 0 for r in table.class_n]
    for j, levels in enumerate(table.bins):
        for zero, (cs, rs) in enumerate(levels):
            assert cs == [c for c, cap in enumerate(table.class_cap)
                          if (cap, table.class_zero[c]) == (j, zero)], (j, zero)
            assert rs == [table.class_n[c] for c in cs]
    weighted = [w * cap for w, cap in zip(table.class_weight, table.class_cap)]
    assert table.cap_sums == (sum(weighted), sum(
        x for x, zero in zip(weighted, table.class_zero) if zero))
    at_caps = all(table.class_cap[c] == tgt
                  for c, tgt in zip(table.orbit_class, table.orbit_target))
    assert table.at_caps == at_caps
    assert (table.cap_sums == genus(table.ctx, d)) == at_caps


@pytest.mark.parametrize("p,e,d", _NINE_FIELDS)
def test_table_degree_matches_square_and_multiply(p, e, d):
    for m in irreducible_enumerate(make_field(p, e), d):
        sources = _route_sources(m)
        for n in range(1, m.group_order):
            want = oracle._bbar_degree(n, m)
            assert _degrees(n, m, sources) == [want, want], (format_poly(m.poly), n)


@pytest.mark.parametrize("p,e,d", _NINE_FIELDS)
def test_single_modulus_reads_its_listed_root(p, e, d):
    # RootSums.of finds each modulus at the root table.roots lists for
    # it, and every modulus of (q, d) is read in one shared table
    ctx = make_field(p, e)
    moduli = list(residue_field(ctx, d).roots.items())
    views = [RootSums.of(Modulus(FqPoly(ctx, codes))) for codes, _ in moduli]
    assert [(v.codes, v.k) for v in views] == moduli
    assert len({id(v.table) for v in views}) == 1


@functools.lru_cache(maxsize=None)
def _moduli(p, e, d):
    return irreducible_enumerate(make_field(p, e), d)


def _at_root(f, view):
    """The F_p coordinates of f(theta) in the LogTable of view, theta its root."""
    table = view.table
    if view.k is None:  # theta = 0, the root of T
        return coordinates(table, table.pack(f.coeffs[:1]))
    return add_coordinates(table, [table.exp[(table.const_logs[c] + j * view.k) % table.order]
                                   for j, c in enumerate(f.coeffs) if c])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_log_table_matches_s_mod_on_random_moduli(data):
    p, e, d = data.draw(st.sampled_from([(2, 1, 2), (2, 1, 6), (3, 1, 2), (3, 1, 4), (5, 1, 3),
                                         (7, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]))
    m = data.draw(st.sampled_from(_moduli(p, e, d)))
    n = data.draw(st.integers(1, m.group_order - 1))
    sources = _route_sources(m)
    view = sources[1]
    for i in range(d):
        assert (coordinates(view.table, view.packed_sum(range(i, i + 1), n))
                == _at_root(s_mod(i, n, m), view)), (format_poly(m.poly), i, n)
    want = oracle._bbar_degree(n, m)
    assert _degrees(n, m, sources) == [want, want]


@pytest.mark.parametrize("p,e,d", _NINE_FIELDS)
def test_sum_below_the_cap_is_minus_the_sum_at_the_cap(p, e, d):
    # the zero-class coefficients of B_n the reader reads, at the root of
    # every modulus: every partial sum P_j = 1 + s_1(n) + ... + s_j(n),
    # j < d, against s_mod coordinate by coordinate, and the identity the
    # first read rests on: at a trivial zero n, P_target = -s_(target+1)(n),
    # the sum up to the target is minus the sum at the level above the
    # target ("the cap" of the test's name, not a class's cap)
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, d):
        view = RootSums.of(m)
        for n in range(ctx.q - 1, m.group_order, ctx.q - 1):
            for j in range(d):
                assert (coordinates(view.table, view.packed_sum(range(j + 1), n))
                        == _at_root(_s_mod_sum(range(j + 1), n, m), view)), (
                            format_poly(m.poly), j, n)
            target = target_degree(n, ctx)
            assert (coordinates(view.table, view.packed_sum(range(target + 1), n))
                    == _at_root(-s_mod(target + 1, n, m), view)), (format_poly(m.poly), n)


# named by q, d and the total; at e > 1 each class under p is read from
# its cap, not from the target of its least member.  "The cap" in the test's
# name is the level above the target, target + 1, which no read gathers;
# a class's cap (LogTable.class_cap) is where its reads start
@pytest.mark.parametrize("p,e,d,total", [
    (7, 1, 3, 5696), (5, 1, 4, 31090), (3, 1, 6, 72430),
    (2, 2, 6, 504482), (3, 2, 4, 480634), (2, 3, 3, 523)],
    ids=["7-3-5696", "5-4-31090", "3-6-72430", "4-6-504482", "9-4-480634", "8-3-523"])
def test_zero_class_reads_never_gather_the_cap(monkeypatch, p, e, d, total):
    # the work of the orbit heads of the moduli of degree d over F_q, counted
    # at the one reader: a zero-class degree reads only partial sums
    # range(j + 1) with 1 <= j <= the cap of its class (at most its
    # target), never P_0 = 1, whose answer is known, and never level
    # target + 1, the q^(target+1) monic logs of that degree; every other
    # read is one level, and the total of gathered terms is pinned
    table = residue_field(make_field(p, e), d)
    q1 = table.ctx.q - 1
    heads = [codes for i, (codes, f) in enumerate(zip(table.roots, table.first)) if f == i]
    reads, terms = [], []

    def record(sums, degrees, n, _):
        reads.append((n, degrees))
        terms.append(sum(len(sums.logs(i)) for i in degrees))

    spy_reads(monkeypatch, record)
    for codes in heads:
        invariants.defect_pass(RootSums(table, codes), genus(table.ctx, d))
    assert {n % q1 == 0 for n, _ in reads} == {False, True}
    for n, degrees in reads:
        j = degrees[-1]
        assert 1 <= j <= _brute_caps(p, e, d)[n] <= target_degree(n, table.ctx), (n, degrees)
        if n % q1 == 0:
            assert degrees == range(j + 1), (n, degrees)
        else:
            assert degrees == range(j, j + 1), (n, degrees)
    assert sum(terms) == total


@pytest.mark.parametrize("p,d,fell,two_levels", [(3, 6, 84, 32), (5, 4, 120, 0)])
def test_zero_class_reads_below_a_vanishing_sum_match_the_oracle(p, d, fell, two_levels):
    # the only exponents whose degree is read below the target: zero-class
    # orbit heads where the partial sum P_target vanishes, at every
    # modulus, against B_n mod m built bottom-up
    table = residue_field(make_field(p), d)
    drops = []
    for codes in table.roots:
        sums, m = RootSums(table, codes), Modulus(FqPoly(table.ctx, codes))
        for n, tgt in zip(table.orbit_n, table.orbit_target):
            if n % (p - 1) == 0 and sums.vanishes(range(tgt + 1), n):
                deg = reduced_degree(n, sums, tgt, True)
                assert deg == oracle._bbar_degree(n, m), (codes, n)
                drops.append(tgt - deg)
    assert (len(drops), drops.count(2)) == (fell, two_levels)
    assert set(drops) <= {1, 2}


def test_a_reader_whose_every_read_vanishes_gives_degree_0():
    # the u^0 coefficient of B_n is 1 in both classes, so a degree whose
    # every read from the target down vanishes is 0 with no read of it
    class Vanishing:
        def vanishes(self, degrees, n):
            asked.append(degrees)
            return True

    asked = []
    assert reduced_degree(6, Vanishing(), 2, True) == 0
    assert asked == [range(3), range(2)]
    asked.clear()
    assert reduced_degree(5, Vanishing(), 2, False) == 0
    assert asked == [range(2, 3), range(1, 2)]


@functools.lru_cache(maxsize=None)
def _shared_table(p, e, d):
    table = residue_field(make_field(p, e), d)
    return table, list(table.roots.items())


@pytest.mark.parametrize("p,e,d", _NINE_FIELDS)
def test_vanishes_matches_the_reduced_coordinates(p, e, d):
    # the packed read (one AND at p = 2, field by field at odd p) against
    # the coordinates reduced mod p, at every level and n of every modulus,
    # and at every partial sum of every zero-class n; each level's sum
    # against s_mod at the root
    table, roots = _shared_table(p, e, d)
    q1 = table.ctx.q - 1
    raw = set()
    for coeffs, _ in roots:
        view = RootSums(table, coeffs)
        m = Modulus(FqPoly(table.ctx, coeffs))
        for n in range(1, table.order):
            reads = [range(i, i + 1) for i in range(d)]
            if n % q1 == 0:
                reads += [range(j + 1) for j in range(1, d)]
            for degrees in reads:
                packed = view.packed_sum(degrees, n)
                want = not any(coordinates(table, packed))
                assert view.vanishes(degrees, n) == want, (coeffs, degrees, n)
                if want:
                    raw.update(packed >> s & table.mask for s in table.shifts)
            for i in range(d):
                assert (coordinates(table, view.packed_sum(range(i, i + 1), n))
                        == _at_root(s_mod(i, n, m), view)), (coeffs, i, n)
        # the batch read answers as the reads of its exponents one by one
        for degrees, ns in ([(range(i, i + 1), range(1, table.order)) for i in range(d)]
                            + [(range(j + 1), range(q1, table.order, q1)) for j in range(1, d)]):
            assert view.vanishing(degrees, ns) == [view.vanishes(degrees, n) for n in ns]
    # some vanishing sum has a field equal to p, not 0, before reduction; at
    # p = 2 the sum is an XOR, which has no unreduced form
    if p > 2 and d > 1:
        assert p in raw, raw


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_root_view_matches_s_mod_on_its_minimal_polynomial(data):
    # one table on the least irreducible m0, read at a random root g^k of
    # another modulus M: the sums vanish where those of M do
    p, e, d = data.draw(st.sampled_from([(2, 1, 3), (2, 1, 6), (3, 1, 2), (3, 1, 4), (5, 1, 3),
                                         (7, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)]))
    table, roots = _shared_table(p, e, d)
    coeffs, _ = data.draw(st.sampled_from(roots))
    m = Modulus(FqPoly(table.ctx, coeffs))
    view = RootSums(table, coeffs)
    n = data.draw(st.integers(1, m.group_order - 1))
    i = data.draw(st.integers(0, d - 1))
    assert (view.vanishes(range(i, i + 1), n)
            == s_mod(i, n, m).is_zero()), (format_poly(m.poly), i, n)
    assert _degrees(n, m, [view]) == [oracle._bbar_degree(n, m)]


def _count_tables(monkeypatch):
    """Every LogTable build, by the codes of m0, from a cold per-process
    field cache."""
    powersums.shared_field.cache_clear()
    built = []
    real = powersums.LogTable

    def counted(ctx, m0):
        built.append(m0)
        return real(ctx, m0)

    monkeypatch.setattr(powersums, "LogTable", counted)
    return built


def test_log_table_is_built_once_the_products_reach_its_size(monkeypatch, naive_stream,
                                                             f3, f4):
    built = _count_tables(monkeypatch)
    moduli = irreducible_enumerate(f3, 3)
    streams = [expand_orbits(m, full_pass_stream(RootSums.of(m))) for m in moduli]
    # one table for the eight single-modulus streams, on the least primitive m0
    m0 = least_primitive(f3, 3)
    assert built == [m0]
    assert streams == [naive_stream(m) for m in moduli]

    # witness pass on the first sextic over F_4: stops at n = 42, on the
    # one table that every single-modulus stream builds
    sextic = next(Modulus(f) for f in monic_enumerate(f4, 6) if is_irreducible(f))
    built.clear()
    assert first_defects(RootSums.of(sextic)) == (10, 42)
    assert built == [least_primitive(f4, 6)]
    assert _firsts(*_stream_defects(naive_stream(sextic), 3)) == (10, 42)

    # an ordinary cubic over F_7 is scanned to the end, with one table
    cubic = Modulus(parse_poly("T^3+T+1", make_field(7)))
    built.clear()
    assert first_defects(RootSums.of(cubic)) == (None, None)
    assert built == [least_primitive(cubic.ctx, 3)]
    assert _firsts(*_stream_defects(naive_stream(cubic), 6)) == (None, None)


def test_log_table_certifies_its_generator():
    # T^3 + 2 is irreducible over F_7, but T^3 = 5 there, so T has order 18
    # of 342; over F_2, T^5 = 1 mod T^4 + T^3 + T^2 + T + 1, of order 15, so
    # the one-bit walk returns to 1 but meets only 5 residues
    for p, poly in [(7, "T^3+2"), (2, "T^4+T^3+T^2+T+1")]:
        ctx = make_field(p)
        with pytest.raises(InternalError, match=f"table of {re.escape(poly)} is not a bijection"):
            LogTable(ctx, parse_poly(poly, ctx).coeffs)


def test_residue_cost_ceiling(monkeypatch, m_headline):
    built = _count_tables(monkeypatch)
    cost = residue_cost(m_headline.ctx, m_headline.d)
    assert cost == 26 * (3 + 1)
    # the single-modulus check names the modulus it was given
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost - 1))
    with pytest.raises(CostCeilingError, match=r"degree stream mod T\^3\+2\*T\+1 .*budget"):
        hasse_witt(m_headline)
    with pytest.raises(CostCeilingError, match="budget"):
        first_defects(RootSums.of(m_headline))
    assert built == []
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost))
    at_cost = hasse_witt(m_headline)
    monkeypatch.delenv("CARLITZ_HW_BUDGET")
    assert at_cost == hasse_witt(m_headline)


def test_residue_cost_ceiling_on_a_warm_field(monkeypatch, m_headline):
    # the field of (3, 3) is kept by the process, and the budget is still
    # checked on every call, before the cache is read
    built = _count_tables(monkeypatch)
    cost = residue_cost(m_headline.ctx, m_headline.d)
    hasse_witt(m_headline)
    assert len(built) == 1
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost - 1))
    with pytest.raises(CostCeilingError, match="budget"):
        hasse_witt(m_headline)
    with pytest.raises(CostCeilingError, match="budget"):
        first_defects(RootSums.of(m_headline))
    assert len(built) == 1


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
def test_structural_bounds_at_larger_extensions(naive_stream, p, e):
    # spot-check the q = 8 and q = 9 paths end to end on two moduli each
    ctx = make_field(p, e)
    for m in irreducible_enumerate(ctx, 2)[:2]:
        rep = hasse_witt(m)
        assert expand_orbits(m, full_pass_stream(RootSums.of(m))) == naive_stream(m)
        assert 0 <= rep.lambda_plus <= rep.lambda_ <= rep.g
        assert not rep.ordinary  # no extension field is ordinary at d = 2
        zf, zp = z_bar(m)
        assert zf.u_degree == rep.lambda_
        assert zp.u_degree == rep.lambda_plus


@pytest.mark.parametrize("p,e,d", [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 2, 2), (3, 2, 3),
                                   (2, 3, 2), (2, 3, 3), (5, 2, 2)])
def test_universal_defect_at_e_above_one(p, e, d):
    # n* = p^(e-1) (q + p - 1) has base-q digits q - p^(e-1) and p^(e-1), so
    # target 1 outside the zero class, and s_1(n*) = 0 in F_q[T] by Lucas
    # (README, "How degrees are computed"): every modulus of degree d >= 2
    # has the defect n* at degree 0, and none is ordinary
    ctx = make_field(p, e)
    star = p ** (e - 1) * (ctx.q + p - 1)
    assert star < ctx.q**2 - 1 and star % (ctx.q - 1) == 1
    assert target_degree(star, ctx) == 1
    assert powersums.s_exact(1, star, ctx).is_zero()
    for m in irreducible_enumerate(ctx, d):
        rep = hasse_witt(m)
        assert Defect(star, 1, 0) in rep.defects, (format_poly(m.poly), rep.defects)
        assert not rep.ordinary


def test_ordinary_implies_exact_degrees_match(f3):
    # on an ordinary modulus the reduced and exact degrees coincide
    from carlitz_hw import b_poly
    m = Modulus(parse_poly("T^3+T^2+2", f3))
    rep = hasse_witt(m)
    assert rep.ordinary
    for n in range(1, 26):
        assert b_poly(n, f3, m=m).u_degree == b_poly(n, f3).u_degree

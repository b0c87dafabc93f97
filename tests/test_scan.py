import json
import re

import pytest

from carlitz_hw import (
    FqPoly,
    Modulus,
    format_poly,
    genus,
    hasse_witt,
    irreducible_enumerate,
    make_field,
    parse_poly,
    polyring,
    powersums,
    scan,
    scan_degree,
    write_records,
)
from carlitz_hw.cli import run
from carlitz_hw.errors import CostCeilingError, DomainError, InternalError, OverflowLimitError
from carlitz_hw.invariants import first_defects
from carlitz_hw.polyring import irreducible_count, least_primitive
from carlitz_hw.powersums import LogTable, RootSums, residue_cost, residue_field
from carlitz_hw.scan import CSV_HEADER, MODE_FULL, MODE_WITNESS, ScanRecord
from conftest import spy_reads

_ELAPSED = re.compile(r"\d+$", re.M)


def _mask(text):
    return _ELAPSED.sub("X", text)


def test_scan_f3_quadratics(f3):
    records = scan_degree(f3, 2)
    assert len(records) == 3
    assert all(r.ordinary and r.ordinary_plus for r in records)
    assert [r.m for r in records] == ["T^2+1", "T^2+T+2", "T^2+2*T+2"]


def test_scan_f3_cubics(f3):
    records = scan_degree(f3, 3)
    assert len(records) == 8
    assert sum(r.ordinary for r in records) == 6
    assert all(r.ordinary_plus for r in records)
    headline = next(r for r in records if r.m == "T^3+2*T+1")
    assert headline.lambda_ == 18
    assert headline.first_defect_n == 13
    assert not headline.ordinary


def test_scan_f4_linears(f4):
    records = scan_degree(f4, 1)
    assert len(records) == 4
    assert all(r.ordinary and r.g == 0 for r in records)


def test_record_count_matches_necklace_formula(f4, f5):
    assert len(scan_degree(f4, 2)) == irreducible_count(f4, 2)
    assert len(scan_degree(f5, 2)) == irreducible_count(f5, 2)


def test_scan_limit(f3):
    records = scan_degree(f3, 3, limit=2)
    assert [r.m for r in records] == ["T^3+2*T+1", "T^3+2*T+2"]
    assert scan_degree(f3, 3, limit=0) == []


def test_scan_witness_mode(f4):
    records = scan_degree(f4, 2, mode=MODE_WITNESS)
    for r in records:
        assert r.lambda_ is None and r.lambda_plus is None
        assert r.supersingular is None
        assert not r.ordinary and r.ordinary_plus
        assert r.first_defect_n == 10


def test_scan_ordinary_only_mode(f3):
    # The ordinary moduli are the witness-mode records with no witness;
    # "ordinary-only" is not a scan mode of its own.
    records = [r for r in scan_degree(f3, 3, mode=MODE_WITNESS) if r.ordinary]
    assert len(records) == 6
    full = {r.m: r.ordinary for r in scan_degree(f3, 3)}
    assert all(full[r.m] for r in records)
    with pytest.raises(DomainError):
        scan_degree(f3, 3, mode="ordinary-only")


def _count_calls(monkeypatch):
    """Every is_irreducible call and every LogTable build, by last argument
    (the polynomial tested, the codes of m0), from a cold per-process field
    cache."""
    powersums.shared_field.cache_clear()
    tested, built = [], []

    def counting(calls, real):
        def counted(*args):
            calls.append(args[-1])
            return real(*args)
        return counted

    monkeypatch.setattr(polyring, "is_irreducible", counting(tested, polyring.is_irreducible))
    table = counting(built, powersums.LogTable)
    monkeypatch.setattr(powersums, "LogTable", table)
    monkeypatch.setattr(scan, "LogTable", table)
    return tested, built


def test_scan_unknown_mode(monkeypatch, f3):
    tested, built = _count_calls(monkeypatch)
    with pytest.raises(DomainError):
        scan_degree(f3, 2, mode="everything")
    with pytest.raises(DomainError):
        scan_degree(f3, 2, limit=-1)
    with pytest.raises(DomainError):
        scan_degree(f3, 2, workers=0)
    # all are rejected before any modulus is enumerated or any field built
    assert tested == [] and built == []


def test_csv_output_golden(tmp_path, f2):
    path = tmp_path / "out.csv"
    write_records(scan_degree(f2, 2), "csv", str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert _mask(lines[1]) == "T^2+T+1,2,0,0,0,0,true,true,true,,X"
    assert len(lines) == 2


def test_csv_empty_scan_is_header_only(tmp_path, f3):
    path = tmp_path / "empty.csv"
    write_records([], "csv", str(path))
    assert path.read_text() == CSV_HEADER + "\n"


def test_jsonl_output(tmp_path, f4):
    path = tmp_path / "out.jsonl"
    write_records(scan_degree(f4, 2, mode=MODE_WITNESS), "jsonl", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    rec = json.loads(lines[0])
    assert list(rec) == ["m", "d", "g", "g_plus", "lambda", "lambda_plus",
                         "ordinary", "ordinary_plus", "supersingular",
                         "first_defect_n", "elapsed_ms"]
    assert rec["lambda"] is None and rec["supersingular"] is None
    assert rec["first_defect_n"] == 10
    # booleans serialize lowercase in the raw payload
    assert '"ordinary_plus":true' in lines[0].replace(" ", "")


def test_write_records_format_guard(tmp_path):
    with pytest.raises(DomainError):
        write_records([], "xml", str(tmp_path / "x"))


def test_scan_tests_each_polynomial_once(monkeypatch, f3):
    # none at all: the search for the least primitive cubic T^3+2T+1 tests
    # the order of T, which proves it irreducible, and the table is built
    # on its codes, never a Modulus; the moduli themselves are minimal
    # polynomials of roots, never tested
    tested, built = _count_calls(monkeypatch)
    made = []
    real = polyring.Modulus

    def counted(poly):
        made.append(poly)
        return real(poly)

    monkeypatch.setattr(polyring, "Modulus", counted)
    assert len(scan_degree(f3, 3)) == 8
    assert tested == [] and made == []
    assert built == [(1, 2, 0, 1)]


@pytest.mark.parametrize("mode", [MODE_FULL, MODE_WITNESS])
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_budget_checked_before_the_shared_table(monkeypatch, f3, mode, workers):
    _, built = _count_calls(monkeypatch)
    cost = residue_cost(f3, 3)
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost - 1))
    with pytest.raises(CostCeilingError, match="degree 3 residue field over F_3 "):
        scan_degree(f3, 3, mode=mode, workers=workers)
    assert built == []
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost))
    assert len(scan_degree(f3, 3, mode=mode, workers=workers)) == 8
    assert len(built) == 1  # one table for the eight moduli of the scan


def _report_record(m, mode):
    """The scan record of one checked Modulus, from the per-modulus engine."""
    g, g_plus = genus(m.ctx, m.d)
    if mode == MODE_WITNESS:
        witness, witness_plus = first_defects(RootSums.of(m))
        return ScanRecord(m=format_poly(m.poly), d=m.d, g=g, g_plus=g_plus,
                          lambda_=None, lambda_plus=None, ordinary=witness is None,
                          ordinary_plus=witness_plus is None, supersingular=None,
                          first_defect_n=witness, elapsed_ms=0)
    rep = hasse_witt(m)
    return ScanRecord(m=rep.m, d=rep.d, g=g, g_plus=g_plus, lambda_=rep.lambda_,
                      lambda_plus=rep.lambda_plus, ordinary=rep.ordinary,
                      ordinary_plus=rep.ordinary_plus, supersingular=rep.supersingular,
                      first_defect_n=rep.defects[0].n if rep.defects else None,
                      elapsed_ms=0)


def _stream_record(m, mode, stream):
    """The scan record of one checked Modulus, from its whole degree stream."""
    g, g_plus = genus(m.ctx, m.d)
    q1 = m.ctx.q - 1
    defects = [n for n, deg, tgt in stream if deg != tgt]
    lam = sum(deg for _, deg, _ in stream)
    lam_plus = sum(deg for n, deg, _ in stream if n % q1 == 0)
    full = mode == MODE_FULL
    return ScanRecord(m=format_poly(m.poly), d=m.d, g=g, g_plus=g_plus,
                      lambda_=lam if full else None, lambda_plus=lam_plus if full else None,
                      ordinary=not defects,
                      ordinary_plus=not any(n % q1 == 0 for n in defects),
                      supersingular=lam == 0 if full else None,
                      first_defect_n=defects[0] if defects else None, elapsed_ms=0)


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (3, 1, 1), (2, 1, 5), (3, 1, 3), (5, 1, 2),
                                   (7, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
@pytest.mark.parametrize("use_orbit", [True, False])
def test_scan_records_match_per_modulus_reports(naive_stream, p, e, d, use_orbit):
    # against the orbit engine on each modulus alone, and against the naive
    # stream of each modulus, which shares no orbit of exponents or moduli
    ctx = make_field(p, e)
    moduli = irreducible_enumerate(ctx, d)
    for mode in (MODE_FULL, MODE_WITNESS):
        got = [r._replace(elapsed_ms=0) for r in scan_degree(ctx, d, mode=mode)]
        if use_orbit:
            want = [_report_record(m, mode) for m in moduli]
        else:
            want = [_stream_record(m, mode, naive_stream(m)) for m in moduli]
        assert got == want, mode


def test_two_fields_of_nine_elements_in_one_process():
    # F_9 on x^2+1, the default, and on x^2+x+2 share (p, e, d), so the field
    # kept per process must be keyed by the field polynomial too: interleaved,
    # each modulus's report equals its scan row under its own field
    fields = [make_field(3, 2), make_field(3, 2, (2, 1, 1))]
    assert fields[0].field_modulus == (1, 0, 1)
    rows = [scan_degree(ctx, 2) for ctx in fields]
    powersums.shared_field.cache_clear()
    for pair in zip(*rows, strict=True):
        for ctx, row in zip(fields, pair):
            m = Modulus(parse_poly(row.m, ctx))
            assert _report_record(m, MODE_FULL) == row._replace(elapsed_ms=0), row.m


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_scan_degree_one_includes_t(p, e):
    # the root of T is 0, which is no power of the table's generator
    ctx = make_field(p, e)
    records = scan_degree(ctx, 1)
    assert [r.m for r in records] == [format_poly(m.poly)
                                      for m in irreducible_enumerate(ctx, 1)]
    assert records[0].m == "T" and records[0].ordinary and records[0].supersingular


def test_worker_counts_agree(tmp_path, f3):
    base = scan_degree(f3, 3, workers=1)
    multi = scan_degree(f3, 3, workers=2)
    strip = lambda rs: [r.as_ordered_dict() | {"elapsed_ms": 0} for r in rs]
    assert strip(base) == strip(multi)
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    write_records(base, "csv", str(p1))
    write_records(multi, "csv", str(p2))
    assert _mask(p1.read_text()) == _mask(p2.read_text())


def test_output_cross_field_consistency(tmp_path, f3):
    # emitted rows must stay internally consistent, not only in memory
    path = tmp_path / "f3d3.jsonl"
    write_records(scan_degree(f3, 3), "jsonl", str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 8
    for r in rows:
        assert r["ordinary"] == (r["lambda"] == r["g"])
        assert r["ordinary_plus"] == (r["lambda_plus"] == r["g_plus"])
        assert (r["first_defect_n"] is None) == r["ordinary"]
        assert r["supersingular"] == (r["lambda"] == 0)


def test_record_is_plain_data():
    rec = ScanRecord(m="T", d=1, g=0, g_plus=0, lambda_=0, lambda_plus=0,
                     ordinary=True, ordinary_plus=True, supersingular=True,
                     first_defect_n=None, elapsed_ms=1)
    assert rec.as_ordered_dict()["lambda"] == 0


def _substitution_orbits(ctx, d):
    """The orbits of the moduli of degree d under T -> alpha*T + c and the
    coefficient Frobenius, by polynomial substitution: each orbit is the set
    of monic phi^j(m)(alpha*T + c)/alpha^d."""
    orbits = set()
    for m in irreducible_enumerate(ctx, d):
        images = set()
        f = m.poly
        for _ in range(ctx.e):
            f = FqPoly(ctx, [ctx.pow(c, ctx.p) for c in f.coeffs])
            for alpha in range(1, ctx.q):
                for c in range(ctx.q):
                    lin = FqPoly(ctx, [c, alpha])
                    g = FqPoly.zero(ctx)
                    for coeff in reversed(f.coeffs):  # Horner: f(alpha*T + c)
                        g = g * lin + FqPoly(ctx, [coeff])
                    images.add(format_poly(g.scale(ctx.inv(g.coeffs[-1]))))
        orbits.add(frozenset(images))
    return orbits


def _walked_orbits(ctx, d):
    table = residue_field(ctx, d)
    moduli = list(table.roots.items())
    first = table.first
    orbits = {}
    for i, ((codes, _), f) in enumerate(zip(moduli, first)):
        assert first[f] == f <= i  # an orbit is named by its first member
        orbits.setdefault(f, set()).add(format_poly(FqPoly(ctx, codes)))
    return {frozenset(o) for o in orbits.values()}


# (2, 1, 1) and (2, 1, 6) at q = 2, where the scalings and the Frobenius are
# trivial and the walk translates only; (7, 1, 1) at d = 1, with the root 0
_WALKED_FIELDS = [(7, 1, 3), (3, 1, 4), (2, 2, 3), (3, 2, 2), (2, 3, 2),
                  (3, 1, 1), (2, 2, 1), (3, 2, 1), (5, 1, 2), (2, 1, 1),
                  (2, 1, 6), (5, 1, 3), (11, 1, 2), (7, 1, 1)]


@pytest.mark.parametrize("p,e,d", _WALKED_FIELDS)
def test_orbit_walker_matches_substitution(p, e, d):
    ctx = make_field(p, e)
    assert _walked_orbits(ctx, d) == _substitution_orbits(ctx, d)


@pytest.mark.parametrize("p,e,d", _WALKED_FIELDS)
def test_orbit_reps_are_least_conjugates(p, e, d):
    # the walker maps an image root back to its modulus by reps alone
    q = p**e
    table = residue_field(make_field(p, e), d)
    order = table.order
    assert len(table.reps) == order
    for n in range(order):
        assert table.reps[n] == min(n * q**j % order for j in range(d))


@pytest.mark.parametrize("d,moduli,orbits", [(3, 112, 4), (4, 588, 16)])
def test_orbit_counts(d, moduli, orbits):
    table = residue_field(make_field(7), d)
    first = table.first
    assert len(first) == moduli and len(set(first)) == orbits


def test_orbit_walker_rejects_an_image_root_outside_the_size_d_orbits(monkeypatch, f3):
    # one conjugate g^(3k) of a root g^k now claims to lie in the orbit of 1,
    # of size 1, and the orbit of g^k shrinks below size d: the walk meets
    # one of them as an image root when it lists the cubics over F_3
    m0 = least_primitive(f3, 3)
    clean = LogTable(f3, m0)
    k = next(k for (_, k), f in zip(clean.roots.items(), clean.first)
             if clean.first.count(f) > 1)
    real_reps = powersums._orbit_reps

    def corrupted(mult, order):
        reps = real_reps(mult, order)
        reps[k * 3 % order] = 0
        return reps

    monkeypatch.setattr(powersums, "_orbit_reps", corrupted)
    with pytest.raises(InternalError, match="lies in no orbit of size 3"):
        LogTable(f3, m0)


def test_scan_classifies_one_modulus_per_orbit(monkeypatch):
    scanned = []
    real = scan._scan_one

    def counted(table, task):
        scanned.append(task)
        return real(table, task)

    monkeypatch.setattr(scan, "_scan_one", counted)
    ctx = make_field(7)
    records = scan_degree(ctx, 3)
    classified = {format_poly(FqPoly(ctx, task[1])) for task in scanned}
    assert len(records) == 112 and len(classified) == len(scanned) == 4
    # copied rows did no work of their own
    assert all(r.elapsed_ms == 0 for r in records if r.m not in classified)


@pytest.mark.parametrize("p,e,d", [(7, 1, 3), (3, 1, 4), (2, 2, 3), (3, 2, 2),
                                   (2, 1, 5), (2, 2, 1)])
def test_scan_stdout_independent_of_orbit_reduction(capsys, tmp_path, p, e, d):
    # the rows of the orbit reduction against each modulus classified alone;
    # csv for full mode and jsonl for witness mode, so both formats are seen
    mask = lambda text: re.sub(r"\d+(}?)$", r"X\1", text, flags=re.M)
    moduli = irreducible_enumerate(make_field(p, e), d)
    for flag, mode, fmt in (("full", MODE_FULL, "csv"), ("witness", MODE_WITNESS, "jsonl")):
        path = tmp_path / f"alone.{fmt}"
        for extra, count in (([], None), (["--limit", "3"], 3), (["--workers", "2"], None)):
            write_records([_report_record(m, mode) for m in moduli[:count]], fmt, str(path))
            argv = ["scan", "--p", str(p), "--e", str(e), "--d", str(d),
                    "--mode", flag, "--format", fmt, "--workers", "1"]
            assert run(argv + extra) == 0
            assert mask(capsys.readouterr().out) == mask(path.read_text()), (mode, extra)


def test_scan_builds_its_own_field_on_every_call(monkeypatch, f3, m_headline):
    # the per-process field cache serves single-modulus calls and pool
    # workers; a scan neither reads nor fills it, so each call times its build
    _, built = _count_calls(monkeypatch)
    hasse_witt(m_headline)
    assert len(scan_degree(f3, 3)) == len(scan_degree(f3, 3)) == 8
    assert len(built) == 3
    assert powersums.shared_field.cache_info().currsize == 1


def test_scan_limit_zero_builds_nothing_but_checks_the_size(monkeypatch, f3):
    # --limit 0 lists no modulus and builds no field, but an oversized (q, d)
    # still fails, before the budget is read
    _, built = _count_calls(monkeypatch)
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "0")
    assert scan_degree(f3, 3, limit=0) == []
    with pytest.raises(OverflowLimitError):
        scan_degree(f3, 26, limit=0)
    assert built == []


@pytest.mark.parametrize("d", range(1, 10))
def test_every_modulus_over_f2_is_ordinary(d):
    # at q = 2 the first power sum an exponent asks for is a Vandermonde
    # determinant mod m, never 0, so every degree is at its target (README,
    # "How degrees are computed"); scan has no shortcut for it
    records = scan_degree(make_field(2), d)
    assert len(records) == irreducible_count(make_field(2), d)
    for r in records:
        assert (r.lambda_, r.lambda_plus, r.first_defect_n) == (r.g, r.g_plus, None), r


@pytest.mark.parametrize("p,d,ordinary,ordinary_plus,moduli,fallen", [
    (3, 4, 12, 12, 18, 1), (5, 4, 60, 60, 150, 10), (7, 4, 126, 168, 588, 20),
    (3, 7, 216, 288, 312, 8)])
def test_census_where_the_sum_below_the_cap_vanishes(monkeypatch, p, d, ordinary,
                                                     ordinary_plus, moduli, fallen):
    # the census counts of ROADMAP (ordinary / ordinary+ / moduli), in fields
    # where a zero-class partial sum vanishes `fallen` times over the orbit
    # heads, each time at the target, so the read goes on top-down to the
    # partial sum one level below there
    vanished = []

    def record(sums, degrees, n, zero):
        if n % (p - 1) == 0:
            vanished.append(zero)

    spy_reads(monkeypatch, record)
    records = scan_degree(make_field(p), d)
    assert (sum(r.ordinary for r in records), sum(r.ordinary_plus for r in records),
            len(records)) == (ordinary, ordinary_plus, moduli)
    assert sum(vanished) == fallen

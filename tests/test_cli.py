import json
import re
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import carlitz_hw
from carlitz_hw import FqPoly, bpoly, run_verify_suite, scan
from carlitz_hw.cli import run
from carlitz_hw.scan import CSV_HEADER


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_headline(capsys):
    code, out, err = _run(capsys, "invariants", "--p", "3", "--m", "T^3+2T+1")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert (rep["g"], rep["lambda"]) == (19, 18)
    assert rep["ordinary"] is False and rep["ordinary_plus"] is True
    assert list(rep) == ["p", "e", "q", "field_modulus", "m", "d", "g",
                         "g_plus", "lambda", "lambda_plus", "ordinary",
                         "ordinary_plus", "supersingular", "defects",
                         "defects_plus"]


def test_invariants_no_orbit_identical(capsys):
    _, out1, _ = _run(capsys, "invariants", "--p", "3", "--m", "T^3+2T+1")
    _, out2, _ = _run(capsys, "invariants", "--p", "3", "--m", "T^3+2T+1",
                      "--no-orbit")
    assert out1 == out2


@pytest.mark.parametrize("p,e,d", [(2, 1, 1), (3, 1, 1), (2, 1, 5), (3, 1, 3), (5, 1, 2),
                                   (7, 1, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_invariants_command_matches_scan_rows(capsys, p, e, d):
    # `invariants` reads one modulus at its root in a table of its own; scan
    # reads every modulus in one shared table
    field = ["--p", str(p), "--e", str(e)]
    code, out, _ = _run(capsys, "scan", *field, "--d", str(d), "--format", "jsonl")
    assert code == 0
    for row in map(json.loads, out.splitlines()):
        code, out, _ = _run(capsys, "invariants", *field, "--m", row["m"])
        assert code == 0
        rep = json.loads(out)
        keys = ["m", "lambda", "lambda_plus", "ordinary", "ordinary_plus", "supersingular"]
        assert [rep[k] for k in keys] == [row[k] for k in keys]
        assert (rep["defects"][0]["n"] if rep["defects"] else None) == row["first_defect_n"]


def test_invariants_reducible_modulus(capsys):
    code, out, err = _run(capsys, "invariants", "--p", "3", "--m", "T^2")
    assert code == 1
    assert out == ""
    assert "not irreducible" in err


def test_genus_command(capsys):
    code, out, _ = _run(capsys, "genus", "--p", "2", "--e", "2", "--d", "3")
    assert code == 0
    assert json.loads(out) == {"p": 2, "e": 2, "q": 4, "d": 3, "g": 52,
                               "g_plus": 10}


def test_powersum_exact(capsys):
    code, out, _ = _run(capsys, "powersum", "--p", "3", "--i", "1", "--n", "8",
                        "--exact")
    assert code == 0
    assert out.strip() == "6; 2*T^6+2*T^4+2*T^2+2"


def test_powersum_mod(capsys):
    code, out, _ = _run(capsys, "powersum", "--p", "3", "--i", "1", "--n", "5",
                        "--mod", "T^3+2T+1")
    assert code == 0
    assert out.strip() == "0; 1"


def test_powersum_zero_degree_formatting(capsys):
    code, out, _ = _run(capsys, "powersum", "--p", "3", "--i", "2", "--n", "5",
                        "--exact")
    assert code == 0
    assert out.strip() == "-inf; 0"


def test_bpoly_exact(capsys):
    code, out, _ = _run(capsys, "bpoly", "--p", "3", "--n", "8", "--exact",
                        "--d", "3")
    assert code == 0
    assert out.strip() == "1; 1; 2*T^6+2*T^4+2*T^2"


def test_bpoly_mod(capsys):
    code, out, _ = _run(capsys, "bpoly", "--p", "3", "--n", "8",
                        "--mod", "T^3+2T+1")
    assert code == 0
    assert out.strip() == "1; 1; 2"


def test_bpoly_exact_requires_d(capsys):
    code, _, err = _run(capsys, "bpoly", "--p", "3", "--n", "8", "--exact")
    assert code == 1 and "--d" in err


def test_scan_csv_stdout(capsys):
    code, out, _ = _run(capsys, "scan", "--p", "2", "--d", "2",
                        "--workers", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("T^2+T+1,2,0,0,0,0,true,true,true,,")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_scan_rejects_workers_below_one(capsys, workers):
    code, out, err = _run(capsys, "scan", "--p", "2", "--d", "2", "--workers", workers)
    assert code == 1 and out == ""
    assert err == f"error: workers must be >= 1, got {workers}\n"


def test_scan_jsonl_to_file(tmp_path, capsys):
    path = tmp_path / "scan.jsonl"
    code, out, _ = _run(capsys, "scan", "--p", "3", "--d", "2",
                        "--format", "jsonl", "--out", str(path),
                        "--workers", "1")
    assert code == 0 and out == ""
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["m"] for r in rows] == ["T^2+1", "T^2+T+2", "T^2+2*T+2"]
    assert all(r["ordinary"] is True for r in rows)


def test_scan_witness_mode(capsys):
    import csv as csv_mod
    import io
    code, out, _ = _run(capsys, "scan", "--p", "2", "--e", "2", "--d", "2",
                        "--mode", "witness", "--workers", "1")
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(out)))
    for cells in rows[1:]:
        assert cells[4] == "" and cells[5] == "" and cells[8] == ""
        assert cells[9] == "10"


def test_scan_witness_output_independent_of_orbit_and_workers(capsys):
    base = ["scan", "--p", "3", "--d", "3", "--mode", "witness"]
    outs = set()
    for extra in ([], ["--no-orbit"]):
        for workers in ("1", "2"):
            code, out, _ = _run(capsys, *base, *extra, "--workers", workers)
            assert code == 0
            outs.add(re.sub(r"\d+$", "X", out, flags=re.M))
    assert len(outs) == 1
    assert outs.pop().count(",false,true,,13,X") == 2


def test_verify_pass(capsys):
    code, out, _ = _run(capsys, "verify", "--p", "3", "--d", "2",
                        "--suites", "lemma31,digits,gekeler,frobenius,division")
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "suite=lemma31 result=pass",
        "suite=digits result=pass",
        "suite=gekeler result=pass",
        "suite=frobenius result=pass",
        "suite=division result=pass",
    ]


def test_division_suite_reports_a_broken_identity(monkeypatch, capsys, f3):
    # s_1(n) + 1 makes C_n(1) = 1 at every zero-class n: the suite must say
    # so with a failed check and exit 1, not crash inside b_poly
    real = bpoly.s_exact

    def broken(i, n, ctx, budget=None):
        s = real(i, n, ctx, budget=budget)
        return s + FqPoly.one(ctx) if i == 1 else s

    monkeypatch.setattr(bpoly, "s_exact", broken)
    checks = {c.name: c for c in run_verify_suite("division", f3, 2)}
    assert not checks["division-zero-remainder"].passed
    assert checks["division-zero-remainder"].detail == "counterexample n=2"
    code, out, err = _run(capsys, "verify", "--p", "3", "--d", "2",
                          "--suites", "division")
    assert code == 1 and err == ""
    assert out == ("suite=division result=fail failed=division-zero-remainder "
                   "detail='counterexample n=2'\n")


def test_verify_defaults_to_all_suites(capsys):
    code, out, _ = _run(capsys, "verify", "--p", "2", "--d", "3")
    assert code == 0
    assert len(out.splitlines()) == 5


def test_verify_unknown_suite(capsys):
    code, _, err = _run(capsys, "verify", "--p", "3", "--d", "2",
                        "--suites", "nope")
    assert code == 1 and "unknown suite" in err


def test_unknown_flag_is_error(capsys):
    code, _, err = _run(capsys, "scan", "--p", "3", "--d", "2", "--frobnicate")
    assert code == 1 and "unrecognized arguments" in err


def test_missing_required_flag(capsys):
    code, _, err = _run(capsys, "invariants", "--m", "T")
    assert code == 1 and "--p" in err


def test_nonprime_p(capsys):
    code, _, err = _run(capsys, "invariants", "--p", "6", "--m", "T")
    assert code == 1 and "not prime" in err


def test_parse_error_position(capsys):
    code, _, err = _run(capsys, "invariants", "--p", "3", "--m", "T^+1")
    assert code == 1 and "position" in err


def test_budget_env_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "10")
    code, _, err = _run(capsys, "powersum", "--p", "5", "--i", "3",
                        "--n", "100000", "--exact")
    assert code == 3 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("invariants", "--p", "3", "--m", "T^3+2T+1"),
    ("scan", "--p", "3", "--d", "3", "--workers", "1"),
    ("scan", "--p", "3", "--d", "3", "--workers", "2", "--mode", "witness"),
])
def test_budget_env_caps_residue_mode(capsys, monkeypatch, argv):
    # one degree stream over a cubic modulus over F_3 costs 26 * (3 + 1)
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "103")
    code, out, err = _run(capsys, *argv)
    assert code == 3 and "budget" in err and out == ""
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "104")
    assert _run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("exc", [MemoryError, BrokenProcessPool])
def test_scan_resource_failure_exit_code(capsys, monkeypatch, exc):
    # memory exhaustion and a dead worker process are resource limits too;
    # both are raised by the pool, inside scan_degree
    def fail(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(ProcessPoolExecutor, "map", fail)
    code, out, err = _run(capsys, "scan", "--p", "3", "--d", "3", "--workers", "2")
    assert code == 3 and err.startswith("resource limit:") and out == ""


def test_cli_import_leaves_out_the_process_pool():
    # a single-worker run never loads concurrent.futures (nor its logging)
    src = str(Path(carlitz_hw.__file__).parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import carlitz_hw.cli; "
             "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == "[]\n"


def test_scan_interrupt_exit_code(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(scan, "scan_degree", interrupted)
    code, out, err = _run(capsys, "scan", "--p", "3", "--d", "3")
    assert code == 3 and err == "interrupted\n" and out == ""


@pytest.mark.parametrize("budget,suite", [("1", "division"), ("0", "gekeler")])
def test_verify_suite_entirely_over_budget(capsys, monkeypatch, budget, suite):
    # a suite that could check nothing must not report result=pass
    monkeypatch.setenv("CARLITZ_HW_BUDGET", budget)
    code, out, err = _run(capsys, "verify", "--p", "3", "--d", "2", "--suites", suite)
    assert code == 3 and out == ""
    assert err.startswith(f"resource limit: verify suite {suite}: all ")


def test_verify_suite_partly_over_budget(capsys, monkeypatch):
    # budget 1 leaves s_0 at n = 1, 2: 12 of the 14 (i, n) pairs are skipped
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "1")
    code, out, err = _run(capsys, "verify", "--p", "3", "--d", "2",
                          "--suites", "gekeler,division")
    assert code == 3 and out == "suite=gekeler result=pass\n"
    assert err.splitlines() == [
        "note: suite=gekeler skipped=12 items over budget",
        "resource limit: verify suite division: all 3 items are over budget"]
    code, out, err = _run(capsys, "verify", "--p", "3", "--d", "2", "--suites", "gekeler")
    assert code == 0 and out == "suite=gekeler result=pass\n"
    assert err == "note: suite=gekeler skipped=12 items over budget\n"


def test_budget_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "lots")
    code, _, err = _run(capsys, "powersum", "--p", "3", "--i", "1", "--n", "5",
                        "--exact")
    assert code == 1 and "CARLITZ_HW_BUDGET" in err


def test_field_poly_flag(capsys):
    code, out, _ = _run(capsys, "invariants", "--p", "2", "--e", "2",
                        "--field-poly", "x^2+x+1", "--m", "T+[0,1]")
    assert code == 0
    assert json.loads(out)["field_modulus"] == "x^2+x+1"


def test_field_poly_requires_extension(capsys):
    code, _, err = _run(capsys, "invariants", "--p", "3",
                        "--field-poly", "x^2+1", "--m", "T")
    assert code == 1 and "--e > 1" in err


def test_field_poly_reducible(capsys):
    code, _, err = _run(capsys, "invariants", "--p", "2", "--e", "2",
                        "--field-poly", "x^2+1", "--m", "T")
    assert code == 1 and "reducible" in err


def test_exponent_out_of_range(capsys):
    code, _, err = _run(capsys, "bpoly", "--p", "3", "--n", "26",
                        "--mod", "T^3+2T+1")
    assert code == 1 and "outside" in err

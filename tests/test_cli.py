import argparse
import contextlib
import functools
import hashlib
import io
import json
import multiprocessing
import os
import re
import resource
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import carlitz_hw
from carlitz_hw import (
    FqPoly,
    Modulus,
    bpoly,
    format_poly,
    make_field,
    oracle,
    parse_poly,
    powersums,
    run_verify_suite,
    scan,
)
from carlitz_hw import cli
from carlitz_hw.cli import _Parser, run
from carlitz_hw.errors import (
    CostCeilingError,
    DomainError,
    InternalError,
    NotPrimeError,
    OverflowLimitError,
    PolyParseError,
)
from carlitz_hw.invariants import SUITE_NAMES, first_defects
from carlitz_hw.polyring import irreducible_count
from carlitz_hw.powersums import RootSums
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


def test_no_orbit_flag_is_rejected(capsys):
    # both orbit reductions are theorems and always on
    for argv in (["invariants", "--m", "T^3+2T+1"], ["scan", "--d", "3"]):
        code, out, err = _run(capsys, *argv, "--p", "3", "--no-orbit")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


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
    code, out, _ = _run(capsys, "bpoly", "--p", "3", "--n", "8", "--exact")
    assert code == 0
    assert out.strip() == "1; 1; 2*T^6+2*T^4+2*T^2"


def test_bpoly_mod(capsys):
    code, out, _ = _run(capsys, "bpoly", "--p", "3", "--n", "8",
                        "--mod", "T^3+2T+1")
    assert code == 0
    assert out.strip() == "1; 1; 2"


def test_bpoly_takes_no_d(capsys):
    code, out, err = _run(capsys, "bpoly", "--p", "3", "--n", "8", "--exact", "--d", "3")
    assert (code, out) == (1, "") and "--d" in err


def test_bpoly_exact_has_no_upper_bound_on_n(capsys, f3):
    # B_n depends on n alone: q^d - 1 is out of range only with a modulus
    code, out, _ = _run(capsys, "bpoly", "--p", "3", "--n", "26", "--exact")
    b = bpoly.b_poly(26, f3)
    assert code == 0
    assert out == "; ".join([str(b.u_degree)] + [format_poly(c) for c in b.coeffs]) + "\n"


# sha256 of scan's stdout with the last column or key, elapsed_ms, cut from
# every line, as CSV unless the argv names its format: the argv of the four
# bench workloads, a full scan over F_9, a JSONL scan over F_4, two scans
# at d = 1, whose rows hold ints 0 and 1 beside the flag columns, and two
# more in characteristic 2, over F_2 and F_8
_GOLDEN_SCANS = [
    ("--p 7 --d 3 --mode full",
     "1b0af6917fb030b6d6d37fc8cd5797bcb8804e73b65fc94b2bb26ba2396c8dd6"),
    ("--p 7 --d 3 --mode witness --limit 28",
     "84d38b309b7570d1288de1f60e056004b5c38cbb6b413ce57a4e2ae431fb9197"),
    ("--p 2 --e 2 --d 6 --mode full --limit 1",
     "583a043f91c9cdc365e8abcf353ccb388f8852f6cfc53ae235e5cda4a2be93eb"),
    ("--p 2 --e 2 --d 6 --mode witness",
     "351773cea28bc2544ffcede1db60fd95d55c99fd672d5ad22d6a3d5bd8fcd1c1"),
    ("--p 3 --e 2 --d 3",
     "570ea81312a0d1e5895e06c7ac0edfde525477a3756f1e5f773cae5686bb6989"),
    ("--p 2 --e 2 --d 3 --format jsonl",
     "19407501f2623d3e7a47d0ef46528bfcf98bda1127ae5011c614af995f91bda7"),
    ("--p 3 --d 1",
     "f68bbf79312c33597d706b7928bedc48373e9a401aaa4ddd837e9e233bf55e52"),
    ("--p 2 --e 2 --d 1",
     "e8f12920f4d440b8b687b7b9bfe6092562a71ce90e2aba3c65e1af3abf961d6d"),
    ("--p 2 --d 9",
     "43cf83ae087a48d25b9a0772626d7c1a5891394c2ef25133aa9496a0909e7ab4"),
    ("--p 2 --e 3 --d 3",
     "2491198e1cb1b1cd9f0bcc28205b7e3519e9d0a503973da551b4126535682b30"),
]


@pytest.mark.parametrize("args,digest", _GOLDEN_SCANS, ids=[a for a, _ in _GOLDEN_SCANS])
def test_scan_output_matches_its_golden_digest(capsys, args, digest):
    argv = args.split()
    if "--format" not in argv:
        argv += ["--format", "csv"]
    code, out, _ = _run(capsys, "scan", *argv, "--workers", "1")
    assert code == 0
    masked = "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())
    assert hashlib.sha256(masked.encode()).hexdigest() == digest


@pytest.mark.parametrize("p,shift,message", [
    ("3", (1, 0), "defect total disagrees with g - lambda"),
    ("5", (1, 0), "ordinariness flags disagree with lambda sums"),
    ("5", (0, 1), "ordinariness flags disagree with lambda sums")])
def test_full_scan_checks_lambda_against_the_genus(capsys, monkeypatch, p, shift, message):
    # the one-pass full mode keeps the report's checks: a genus off by one
    # is an internal error (exit 2), where witness mode reads no lambda.
    # The first cubic over F_3 is defective, every one over F_5 ordinary.
    real = scan.genus
    monkeypatch.setattr(scan, "genus", lambda ctx, d: tuple(
        g + s for g, s in zip(real(ctx, d), shift)))
    code, out, err = _run(capsys, "scan", "--p", p, "--d", "3", "--mode", "full",
                          "--workers", "1")
    assert code == 2 and out == CSV_HEADER + "\n"
    assert message in err
    code, _, _ = _run(capsys, "scan", "--p", p, "--d", "3", "--mode", "witness",
                      "--workers", "1")
    assert code == 0


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


def test_scan_witness_output_independent_of_orbit_and_workers(capsys, f3):
    base = ["scan", "--p", "3", "--d", "3", "--mode", "witness"]
    outs = set()
    for workers in ("1", "2"):
        code, out, _ = _run(capsys, *base, "--workers", workers)
        assert code == 0
        outs.add(re.sub(r"\d+$", "X", out, flags=re.M))
    assert len(outs) == 1
    out = outs.pop()
    assert out.count(",false,true,,13,X") == 2
    # each row as its modulus classifies alone, with no orbit shared
    for row in out.splitlines()[1:]:
        cells = row.split(",")
        first, first_plus = first_defects(RootSums.of(Modulus(parse_poly(cells[0], f3))))
        assert cells[6:8] == [str(first is None).lower(), str(first_plus is None).lower()]
        assert cells[9] == ("" if first is None else str(first))


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

    def broken(i, n, ctx):
        s = real(i, n, ctx)
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


def test_verify_checks_every_suite_name_before_the_first_runs(capsys):
    # lemma31 would pass; the unknown name after it fails the run first
    assert _run(capsys, "verify", "--p", "3", "--d", "2", "--suites", "lemma31,foo") == (
        1, "", "error: unknown suite 'foo'; choose from "
               "('lemma31', 'digits', 'gekeler', 'frobenius', 'division')\n")


def test_unknown_flag_is_error(capsys):
    code, _, err = _run(capsys, "scan", "--p", "3", "--d", "2", "--frobnicate")
    assert code == 1 and "unrecognized arguments" in err


def _parser_with_every_command():
    """The parser with the arguments of every command, the shared ones
    copied in through parents=, as the CLI built it for every call before
    a call built its own command's arguments only."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    shared.add_argument("--e", type=int, default=1, help="extension degree (default 1)")
    shared.add_argument("--field-poly", default=None,
                        help="defining polynomial of F_q over F_p in x "
                             "(only with --e > 1; default: least irreducible)")
    top = _Parser(prog="carlitz-hw",
                  description="Hasse-Witt invariants and ordinariness of "
                              "cyclotomic function fields over F_q(T)")
    sub = top.add_subparsers(dest="command", required=True)
    p_inv = sub.add_parser("invariants", parents=[shared],
                           help="full invariant report for one modulus")
    p_inv.add_argument("--m", required=True, help="monic irreducible modulus in T")
    p_scan = sub.add_parser("scan", parents=[shared],
                            help="classify all irreducible moduli of a degree")
    p_scan.add_argument("--d", type=int, required=True)
    p_scan.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_scan.add_argument("--out", default=None, help="output path (default stdout)")
    p_scan.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_scan.add_argument("--mode", choices=("full", "witness"), default="full")
    p_scan.add_argument("--limit", type=int, default=None)
    p_bp = sub.add_parser("bpoly", parents=[shared],
                          help="generating polynomial of one exponent")
    p_bp.add_argument("--n", type=int, required=True)
    group = p_bp.add_mutually_exclusive_group(required=True)
    group.add_argument("--mod", default=None, help="reduce mod this modulus")
    group.add_argument("--exact", action="store_true")
    p_ps = sub.add_parser("powersum", parents=[shared],
                          help="power sum over monic polynomials of one degree")
    p_ps.add_argument("--i", type=int, required=True)
    p_ps.add_argument("--n", type=int, required=True)
    group = p_ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--mod", default=None)
    group.add_argument("--exact", action="store_true")
    p_gen = sub.add_parser("genus", parents=[shared],
                           help="genus pair for all moduli of a degree")
    p_gen.add_argument("--d", type=int, required=True)
    p_ver = sub.add_parser("verify", parents=[shared],
                           help="run the identity suites at (q, d)")
    p_ver.add_argument("--d", type=int, required=True)
    p_ver.add_argument("--suites", default=",".join(SUITE_NAMES),
                       help="comma-separated subset of: " + ",".join(SUITE_NAMES))
    return top


@pytest.mark.parametrize("command", [None, "invariants", "scan", "bpoly", "powersum",
                                     "genus", "verify"])
def test_help_is_that_of_the_parser_with_every_command(capsys, monkeypatch, command):
    # a call builds the arguments of its own command only; --help prints
    # the same bytes, at the top and for each command
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: carlitz-hw") and "--help" in out
    with pytest.raises(SystemExit):
        _parser_with_every_command().parse_args(argv)
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv", [[], ["foo"], ["Scan", "--p", "3", "--d", "2"],
                                  ["--p", "3", "scan", "--d", "2"], ["--", "genus"], ["scan"],
                                  ["scan", "--p", "3", "--d", "2", "--frobnicate"],
                                  ["genus", "--p", "3", "--d", "2", "--m", "T"]])
def test_usage_errors_are_those_of_the_parser_with_every_command(capsys, argv):
    # an unknown command or option exits 1 through DomainError, with the
    # message of the parser that has every command's arguments
    with pytest.raises(DomainError) as exc:
        _parser_with_every_command().parse_args(argv)
    assert _run(capsys, *argv) == (1, "", f"error: {exc.value}\n")


def test_run_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["carlitz-hw", "genus", "--p", "3", "--d", "3"])
    assert run() == 0
    assert capsys.readouterr().out == '{"p":3,"e":1,"q":3,"d":3,"g":19,"g_plus":6}\n'
    monkeypatch.setattr(sys, "argv", ["carlitz-hw"])
    assert run() == 1
    assert capsys.readouterr().err == "error: the following arguments are required: command\n"


_VALID_ARGV = [
    ["invariants", "--p=3", "--m", "T^3+2T+1"],
    ["scan", "--p", "3", "--d", "2", "--wor", "1", "--lim", "2"],
    ["scan", "--p", "2", "--p", "3", "--d", "2", "--mode=witness", "--format", "jsonl"],
    ["scan", "--p", "3", "--e", "2", "--field-poly", "x^2+1", "--d", "2", "--out", "rows.csv"],
    ["bpoly", "--p", "3", "--n", "8", "--exact"],
    ["bpoly", "--p=3", "--n", "8", "--mod", "T^3+2T+1"],
    ["powersum", "--p", "3", "--i", "1", "--n", "5", "--mod", "T^3+2T+1"],
    ["powersum", "--p", "3", "--i", "2", "--n", "5", "--ex"],
    ["genus", "--p", "3", "--d", "3"],
    ["verify", "--p", "2", "--d", "3"],
    ["verify", "--p", "2", "--d", "2", "--suites", "digits"],
]


@pytest.mark.parametrize("argv", _VALID_ARGV, ids=[" ".join(a) for a in _VALID_ARGV])
def test_a_named_command_parses_as_with_every_command(monkeypatch, argv):
    # run parses a named command with its own parser alone, into the
    # namespace of the parser with every command but its command key
    got = []
    text = cli._COMMANDS[argv[0]][1]
    monkeypatch.setitem(cli._COMMANDS, argv[0], (got.append, text))
    run(argv)
    want = vars(_parser_with_every_command().parse_args(argv))
    assert want.pop("command") == argv[0]
    assert [vars(args) for args in got] == [want]


def _parsers_built(monkeypatch, argv):
    """The prog of each _Parser that run(argv) constructs, in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Parser, "__init__", counted)
    with contextlib.suppress(SystemExit):
        run(argv)
    return built


@pytest.mark.parametrize("argv", [
    ["invariants", "--p", "3", "--m", "T^3+2T+1"], ["scan", "--p", "3", "--d", "2", "--workers", "1"],
    ["bpoly", "--p", "3", "--n", "8", "--exact"], ["powersum", "--p", "3", "--i", "1", "--n", "5", "--exact"],
    ["genus", "--p", "3", "--d", "3"], ["verify", "--p", "2", "--d", "2", "--suites", "digits"]],
    ids=lambda argv: argv[0])
def test_a_valid_call_builds_one_parser(capsys, monkeypatch, argv):
    assert _parsers_built(monkeypatch, argv) == [f"carlitz-hw {argv[0]}"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["--help"], [], ["foo"], ["--", "genus"]])
def test_top_level_help_and_usage_errors_build_every_parser(capsys, monkeypatch, argv):
    # the top-level parser and one per command
    assert _parsers_built(monkeypatch, argv) == ["carlitz-hw"] + [
        f"carlitz-hw {name}" for name in cli._COMMANDS]
    assert capsys.readouterr().out.startswith("usage: carlitz-hw") == (argv == ["--help"])


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
    # both are raised by the pool, inside stream_degree
    def fail(*args, **kwargs):
        raise exc()

    monkeypatch.setattr(ProcessPoolExecutor, "map", fail)
    code, out, err = _run(capsys, "scan", "--p", "3", "--d", "3", "--workers", "2")
    assert code == 3 and err.startswith("resource limit:") and out == ""


def test_invariants_oversized_modulus_exits_3_at_once(capsys):
    # q^d - 1 is checked before the modulus is tested for irreducibility
    code, out, err = _run(capsys, "invariants", "--p", "2", "--m", "T^480+T+1")
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: q^d - 1 = ") and err.count("\n") == 1


@pytest.mark.parametrize("d,digits", [(2000, 603), (20000, 6021)])
def test_oversized_modulus_names_q_to_the_d_by_its_digit_count(capsys, d, digits):
    # 2^20000 - 1 has more digits than str() converts by default
    code, out, err = _run(capsys, "invariants", "--p", "2", "--m", f"T^{d}+T+1")
    assert (code, out) == (3, "")
    assert err.startswith(f"resource limit: q^d - 1 = <{digits}-digit integer> exceeds")
    assert len(err) < 200


@pytest.mark.parametrize("argv", [
    ("powersum", "--p", "3", "--i", "9100", "--n", "2", "--exact"),
    ("powersum", "--p", "2", "--i", "20000", "--n", "5", "--exact"),
    # 2^14000 - 1 has 4215 digits, which int() still parses; C_n's top term
    # is refused
    ("bpoly", "--p", "2", "--n", str(2**14000 - 1), "--exact"),
], ids=["powersum-p3", "powersum-p2", "bpoly-p2"])
def test_a_cost_past_4300_digits_is_refused_by_its_digit_count(capsys, argv):
    # str() refuses an int of more than 4300 digits, so the refused cost is
    # named by its digit count, as q^d - 1 is above
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(r"resource limit: .* estimated cost <\d+-digit integer> "
                        r"exceeds budget 1000000000\n", err), err[:200]
    assert len(err) < 200  # n too is named by its digit count


def test_an_exact_power_sum_past_2_to_the_20_bits_is_refused_unbuilt():
    # q^i has more than 2^20 bits, so its cost is named by base and
    # exponent, not built; in a subprocess, so a power that is built times out
    done = subprocess.run(_main_argv("powersum", "--p", "3", "--i", "99999999999", "--n", "2",
                                     "--exact"),
                          capture_output=True, text=True, timeout=10, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (
        3, "", "resource limit: s_exact(i=99999999999, n=2) estimated cost "
               "3^99999999999 * 199999999999 exceeds budget 1000000000\n")


_OVERSIZED_EXPONENTS = [
    (("genus", "--p", "2", "--d", "99999999999"), "q^d = 2^99999999999"),
    (("scan", "--p", "3", "--d", "100000000"), "q^d = 3^100000000"),
    (("verify", "--p", "2", "--d", "9999999999"), "q^d = 2^9999999999"),
    (("genus", "--p", "2", "--e", "99999999999", "--d", "2"), "q = p^e = 2^99999999999"),
    (("invariants", "--p", "3", "--m", "T^99999999999999999999"),
     "exponent = 99999999999999999999"),
    (("invariants", "--p", "3", "--m", "T^" + "9" * 5000), "exponent = <5000-digit integer>"),
    (("invariants", "--p", "3", "--m", "T^9999999+1"), "q^d - 1 = 3^9999999 - 1"),
    (("invariants", "--p", "3", "--m", "T^9999999999+1"), "q^d - 1 = 3^9999999999 - 1"),
]


def _one_gib_of_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize("argv,named", _OVERSIZED_EXPONENTS,
                         ids=["genus-d", "scan-d", "verify-d", "genus-e", "m-20-digits",
                              "m-5000-digits", "m-3^9999999", "m-3^9999999999"])
def test_an_oversized_exponent_is_refused_before_its_power_is_built(argv, named):
    # q^d, p^e and q^d - 1 past 2^20 bits are named by base and exponent,
    # unbuilt, and a polynomial's degree is checked before its coefficient
    # list is built; in a subprocess of 1 GiB of address space, so a power
    # that is built times out and a list of 10^10 entries fails at once
    done = subprocess.run(_main_argv(*argv), capture_output=True, text=True, timeout=10,
                          check=False, preexec_fn=_one_gib_of_address_space)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith(f"resource limit: {named} exceeds the configured limit ")
    assert done.stderr.count("\n") == 1 and len(done.stderr.encode()) < 200
    assert len(done.stderr.encode()) < 200, done.stderr[:200]


@functools.lru_cache(maxsize=None)
def _fresh_imports():
    """{module: set of the modules loaded once it is imported} for
    carlitz_hw.scan and then carlitz_hw.cli, from one fresh interpreter.
    cli imports scan, so its set is what a fresh `import carlitz_hw.cli`
    loads."""
    src = str(Path(carlitz_hw.__file__).parents[1])
    probe = "\n".join(["import sys", "import carlitz_hw.scan", "print(*sys.modules)",
                        "import carlitz_hw.cli", "print(*sys.modules)"])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": src}, check=True, timeout=60)
    scan_set, cli_set = (set(line.split()) for line in done.stdout.splitlines())
    return {"carlitz_hw.scan": scan_set, "carlitz_hw.cli": cli_set}


def _loaded_by_cli_import(*names):
    """The sorted modules among names that a fresh `import carlitz_hw.cli` loads."""
    return sorted(set(names) & _fresh_imports()["carlitz_hw.cli"])


def test_cli_import_leaves_out_heavy_modules():
    # records are named tuples: dataclasses would bring inspect, ast and dis
    # into every process, pool workers included
    assert _loaded_by_cli_import("dataclasses", "inspect", "ast", "dis") == []


def test_cli_import_leaves_out_the_process_pool():
    # a single-worker run never loads concurrent.futures (nor its logging)
    assert _loaded_by_cli_import("concurrent.futures", "logging", "multiprocessing") == []


@pytest.mark.parametrize("module", ["carlitz_hw.cli", "carlitz_hw.scan"])
def test_engine_import_leaves_out_the_oracle_and_json(module):
    # bpoly and the oracle only certify the engine; json only prints two
    # commands and the jsonl format
    loaded = _fresh_imports()[module]
    assert {"carlitz_hw.oracle", "carlitz_hw.bpoly", "json"} & loaded == set()
    assert {module, "carlitz_hw.invariants", "carlitz_hw.powersums"} <= loaded


def test_package_root_resolves_the_lazy_names():
    from carlitz_hw import bpoly, oracle

    for name in ("UPoly", "b_poly", "c_poly"):
        assert getattr(carlitz_hw, name) is getattr(bpoly, name)
    for name in ("f_poly", "run_verify_suite", "s1_closed_form", "verify_identities",
                 "z_bar"):
        assert getattr(carlitz_hw, name) is getattr(oracle, name)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        carlitz_hw.no_such_name


def test_scan_interrupt_exit_code(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(scan, "stream_degree", interrupted)
    code, out, err = _run(capsys, "scan", "--p", "3", "--d", "3")
    assert code == 3 and err == "interrupted\n" and out == ""


@pytest.mark.parametrize("suite,cost", [
    ("lemma31", 14),     # d(q^d - 2) digit operations
    ("digits", 14),
    ("gekeler", 1008),   # d(q^d - 2) sums times exact_cost(1, 7)
    ("frobenius", 4536),  # 3d(q^d - 2) sums on each of 3 moduli, times mod_cost(1, 7, ctx, 2)
    ("division", 378),   # d sums at each of 3 zero-class n, times exact_cost(1, 6)
])
def test_verify_suite_checks_its_whole_cost_first(capsys, monkeypatch, suite, cost):
    # one budget check per suite, on its item count times its costliest item,
    # before the suite starts: over budget it computes nothing and reports no
    # result; within it, every item runs
    def reached(*args, **kwargs):
        raise AssertionError(f"the {suite} suite started")

    argv = ("verify", "--p", "3", "--d", "2", "--suites", suite)
    with monkeypatch.context() as patched:
        for name in ("ell", "s_exact", "c_poly", "irreducible_enumerate"):
            patched.setattr(oracle, name, reached)
        patched.setenv("CARLITZ_HW_BUDGET", str(cost - 1))
        assert _run(capsys, *argv) == (
            3, "", f"resource limit: verify suite {suite} estimated cost {cost} "
                   f"exceeds budget {cost - 1}\n")
    monkeypatch.setenv("CARLITZ_HW_BUDGET", str(cost))
    assert _run(capsys, *argv) == (0, f"suite={suite} result=pass\n", "")


@pytest.mark.parametrize("p,e,d", [(3, 1, 2), (2, 1, 3), (2, 2, 2)])
def test_verify_suite_estimate_bounds_its_work(monkeypatch, p, e, d):
    # a suite computes no more digit sums or power sums (s_exact cache misses
    # and s_mod calls) than its item count, and its refused estimate covers
    # that count times the costliest sum it computed
    ctx = make_field(p, e)
    q, top = ctx.q, ctx.q**d - 2
    items = {"lemma31": d * top, "digits": d * top, "gekeler": d * top,
             "frobenius": 3 * d * top * irreducible_count(ctx, d),
             "division": d * (top // (q - 1))}
    cache, real_ell = powersums._s_exact_cached, oracle.ell
    costs, ells = [], []

    def count_exact(real):
        def spy(i, n, ctx):
            misses = cache.cache_info().misses
            out = real(i, n, ctx)
            if cache.cache_info().misses > misses:
                costs.append(powersums.exact_cost(i, n, ctx))
            return out
        return spy

    def count_mod(real):
        def spy(i, n, m):
            costs.append(powersums.mod_cost(i, n, m.ctx, m.d))
            return real(i, n, m)
        return spy

    def count_ell(n, q):
        ells.append(n)
        return real_ell(n, q)

    for module in (oracle, bpoly):
        monkeypatch.setattr(module, "s_exact", count_exact(module.s_exact))
        monkeypatch.setattr(module, "s_mod", count_mod(module.s_mod))
    monkeypatch.setattr(oracle, "ell", count_ell)
    for name in SUITE_NAMES:
        monkeypatch.setenv("CARLITZ_HW_BUDGET", "0")
        with pytest.raises(CostCeilingError) as refused:
            run_verify_suite(name, ctx, d)
        _, estimate, _ = refused.value.args
        monkeypatch.delenv("CARLITZ_HW_BUDGET")
        cache.cache_clear()
        del costs[:], ells[:]
        assert all(c.passed for c in run_verify_suite(name, ctx, d)), name
        if name in ("lemma31", "digits"):
            assert not costs and len(ells) <= items[name] == estimate, name
        else:
            assert costs and len(costs) <= items[name], (name, len(costs))
            assert items[name] * max(costs) <= estimate, name


def test_verify_suite_partly_over_budget(capsys, monkeypatch):
    # a suite with items over budget is refused whole: it passes no result
    # and skips nothing, and the suites after it do not run
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "1")
    assert _run(capsys, "verify", "--p", "3", "--d", "2", "--suites", "gekeler,division") == (
        3, "", "resource limit: verify suite gekeler estimated cost 1008 exceeds budget 1\n")


def test_identity_checks_carry_no_skip_count():
    assert oracle.IdentityCheck._fields == ("name", "passed", "detail")


@pytest.mark.parametrize("argv", [
    ("powersum", "--p", "3", "--i", "1", "--n", "5", "--exact"),
    ("powersum", "--p", "3", "--i", "1", "--n", "5", "--mod", "T^3+2T+1"),
    ("bpoly", "--p", "3", "--n", "5", "--mod", "T^3+2T+1"),
    ("invariants", "--p", "3", "--m", "T^3+2T+1"),
    ("scan", "--p", "3", "--d", "3", "--workers", "1"),
    ("verify", "--p", "3", "--d", "2", "--suites", "gekeler"),
    ("verify", "--p", "3", "--d", "2", "--suites", "frobenius"),
    ("verify", "--p", "3", "--d", "2", "--suites", "lemma31,digits"),
], ids=["powersum-exact", "powersum-mod", "bpoly-mod", "invariants", "scan",
        "verify-gekeler", "verify-frobenius", "verify-lemma31-digits"])
def test_budget_env_must_be_integer(capsys, monkeypatch, argv):
    # read where a cost is checked: by each of these commands
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "lots")
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: CARLITZ_HW_BUDGET must be a decimal integer, got 'lots'\n"


@pytest.mark.parametrize("argv,want", [
    (("scan", "--p", "3", "--d", "3", "--limit", "0"), CSV_HEADER + "\n"),
    (("genus", "--p", "3", "--d", "3"), '{"p":3,"e":1,"q":3,"d":3,"g":19,"g_plus":6}\n'),
], ids=["scan-limit-0", "genus"])
def test_budget_env_is_not_read_where_no_cost_is_checked(capsys, monkeypatch, argv, want):
    # the budget is read where a cost is checked, so a run that checks none
    # ignores a malformed value
    monkeypatch.setenv("CARLITZ_HW_BUDGET", "lots")
    assert _run(capsys, *argv) == (0, want, "")


def test_verify_refuses_a_large_field_before_any_suite(capsys, monkeypatch):
    # 2^41 > DEFAULT_LIMIT: the digits suite would walk every n < 2^41
    def walked(*args):
        raise AssertionError("the digits suite started")

    monkeypatch.setattr(oracle, "ell", walked)
    with pytest.raises(OverflowLimitError):
        run_verify_suite("digits", make_field(2), 41)
    for suite in ("digits", "gekeler", "division"):
        code, out, err = _run(capsys, "verify", "--p", "2", "--d", "41", "--suites", suite)
        assert code == 3 and out == "" and err.startswith("resource limit: q^d")


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


def test_field_poly_parse_error_quotes_the_input(capsys):
    code, out, err = _run(capsys, "invariants", "--p", "2", "--e", "2",
                          "--field-poly", "x^2+x+1+", "--m", "T")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: expected term c*x^k, c*x, x^k, x or c at position 8: 'x^2+x+1+'"]


# T is the modulus variable, never an alias of x in the field polynomial
@pytest.mark.parametrize("text,pos", [("x^2++1", 4), ("+x^2+1", 0), ("x^2+T+1", 4),
                                      ("T^2+x+1", 0), ("1,1,T", 4)])
def test_field_poly_parse_error_names_the_grammar_in_x(capsys, text, pos):
    code, out, err = _run(capsys, "invariants", "--p", "2", "--e", "2",
                          "--field-poly", text, "--m", "T")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: expected term c*x^k, c*x, x^k, x or c at position {pos}: {text!r}"]


def test_exponent_out_of_range(capsys):
    code, _, err = _run(capsys, "bpoly", "--p", "3", "--n", "26",
                        "--mod", "T^3+2T+1")
    assert code == 1 and "outside" in err


def _second_representative(p, d):
    """The enumeration index and coefficient codes of the second orbit
    representative among the moduli of degree d over F_p."""
    table = powersums.residue_field(make_field(p), d)
    moduli = list(table.roots)
    first = table.first
    i = [j for j, f in enumerate(first) if f == j][1]
    return i, moduli[i]


@pytest.mark.parametrize("exc,err_start", [(KeyboardInterrupt, "interrupted"),
                                           (MemoryError, "resource limit:")])
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("to_file", [False, True])
def test_scan_failure_mid_scan_leaves_complete_rows(capsys, monkeypatch, tmp_path,
                                                    exc, err_start, workers, to_file):
    # rows stream as they are classified: a failure at the second orbit
    # representative leaves the header and every row before it, with a pool
    # too.  The pool is patched in this process, around its map, so the test
    # holds under every start method (a spawned worker would not see a
    # patched _scan_one); a worker's exception reaches the parent the same way
    argv = ["scan", "--p", "3", "--d", "3", "--workers", workers]
    code, clean, _ = _run(capsys, *argv)
    assert code == 0
    index, codes = _second_representative(3, 3)

    real_one, real_map = scan._scan_one, ProcessPoolExecutor.map

    def failing_one(table, task):
        if task[1] == codes:
            raise exc()
        return real_one(table, task)

    def failing_map(self, fn, tasks):
        tasks = list(tasks)
        records = real_map(self, fn, tasks)  # every task submitted now, as by map

        def checked():
            for task in tasks:
                if task[1] == codes:
                    raise exc()
                yield next(records)
        return checked()

    monkeypatch.setattr(*((scan, "_scan_one", failing_one) if workers == "1" else
                          (ProcessPoolExecutor, "map", failing_map)))
    path = tmp_path / "rows.csv"
    code, out, err = _run(capsys, *argv, *(["--out", str(path)] if to_file else []))
    written = path.read_text() if to_file else out
    assert code == 3 and err.startswith(err_start) and len(err.splitlines()) == 1
    assert index == 2 and (out == "") == to_file
    mask = lambda text: re.sub(r"\d+$", "X", text, flags=re.M)
    assert mask(written) == mask("".join(clean.splitlines(True)[:1 + index]))


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="a spawned pool worker would not see the patched _scan_one")
@pytest.mark.parametrize("exc,code", [
    (NotPrimeError(6), 1),
    (PolyParseError("unbalanced ']'", "T+1]", 3), 1),
    (InternalError("T^26 != 1 in the discrete-log table of F_27"), 2),
    (OverflowLimitError("q^d - 1", 2**20000 - 1, 2**40), 3),
    (CostCeilingError("degree 3 residue field over F_3", 3**9100, 10**9), 3),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_a_pool_worker_error_is_the_same_error(capsys, monkeypatch, exc, code):
    # a worker's error reaches the parent pickled; each must come back as
    # itself, with its own exit code and line, not as a broken pool (exit 3)
    def failing_one(table, task):
        raise exc

    monkeypatch.setattr(scan, "_scan_one", failing_one)
    results = [_run(capsys, "scan", "--p", "3", "--d", "3", "--workers", workers)
               for workers in ("1", "2")]
    assert results[0] == results[1]
    assert results[0][0] == code and len(results[0][2].splitlines()) == 1


@pytest.mark.parametrize("argv,budget,want", [
    (("--p", "3", "--d", "3", "--workers", "1"), "103", 3),
    (("--p", "3", "--d", "3", "--workers", "2"), "103", 3),
    (("--p", "2", "--d", "41", "--workers", "1"), None, 3),
    (("--p", "3", "--d", "3", "--workers", "0"), None, 1),
])
@pytest.mark.parametrize("to_file", [False, True])
def test_scan_setup_failure_writes_nothing(capsys, monkeypatch, tmp_path,
                                           argv, budget, want, to_file):
    if budget is not None:
        monkeypatch.setenv("CARLITZ_HW_BUDGET", budget)
    path = tmp_path / "rows.csv"
    code, out, err = _run(capsys, "scan", *argv, *(["--out", str(path)] if to_file else []))
    assert code == want and out == "" and len(err.splitlines()) == 1
    assert not path.exists()


@pytest.mark.parametrize("argv,budget,want", [
    (("--p", "65537", "--d", "2"), None, 3),
    (("--p", "10007", "--d", "3"), None, 3),
    (("--p", "10007", "--d", "2"), "10", 3),
    (("--p", "65537", "--d", "2", "--limit", "0"), None, 0),
])
def test_scan_refuses_a_large_field_before_the_search(capsys, monkeypatch, argv, budget, want):
    # the q^d limit and the budget read (q, d) alone, so an oversized scan is
    # refused, and --limit 0 answers, with no primitive polynomial searched
    # for (O(q) per candidate) and no table built
    def refuse(ctx, d):
        raise AssertionError(f"searched for m0 at q = {ctx.q}, d = {d}")

    for module in (carlitz_hw.polyring, powersums, scan):
        monkeypatch.setattr(module, "least_primitive", refuse, raising=False)
    built = []
    monkeypatch.setattr(powersums, "LogTable", lambda *args: built.append(args))
    if budget is None:
        monkeypatch.delenv("CARLITZ_HW_BUDGET", raising=False)
    else:
        monkeypatch.setenv("CARLITZ_HW_BUDGET", budget)
    code, out, err = _run(capsys, "scan", *argv, "--workers", "1")
    if want == 3:
        assert code == 3 and "budget" in err and out == ""
    else:
        assert (code, out, err) == (0, CSV_HEADER + "\n", "")
    assert built == []


def test_scan_row_zero_is_out_before_the_second_representative(monkeypatch):
    seen = []
    real = scan._scan_one

    def spy(table, task):
        seen.append(sys.stdout.getvalue())
        return real(table, task)

    monkeypatch.setattr(scan, "_scan_one", spy)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["scan", "--p", "3", "--d", "3", "--workers", "1"]) == 0
    index, _ = _second_representative(3, 3)
    lines = buf.getvalue().splitlines(True)
    assert len(seen) == 2 and seen[0] == CSV_HEADER + "\n"
    assert seen[1] == "".join(lines[:1 + index])


def _main_argv(*argv):
    src = str(Path(carlitz_hw.__file__).parents[1])
    return [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {src!r}); from carlitz_hw.cli import main; main()",
            *argv]


def _stdout_env(buffered):
    """The environment with stdout block-buffered (the default for a pipe)
    or unbuffered (PYTHONUNBUFFERED=1)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else env | {"PYTHONUNBUFFERED": "1"}


@pytest.mark.parametrize("argv", [("genus", "--p", "3", "--d", "3"),
                                  ("scan", "--p", "3", "--d", "3", "--workers", "1")])
@pytest.mark.parametrize("buffered", [True, False])
def test_stdout_with_no_reader(argv, buffered):
    # buffered, genus leaves its line for main's final flush, while scan
    # fails at its first flush, inside run
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(_main_argv(*argv), stdout=write_end, stderr=subprocess.PIPE,
                              env=_stdout_env(buffered), timeout=60, check=False)
    finally:
        os.close(write_end)
    err = done.stderr.decode()
    assert done.returncode == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("buffered", [True, False])
def test_scan_into_a_closed_pipe(workers, buffered):
    # `carlitz-hw scan ... | head -n 2`: the reader goes away after two rows.
    # About 400 KB of output, far more than a pipe holds, so the scan always
    # meets the closed pipe at a later flush
    with subprocess.Popen(
            _main_argv("scan", "--p", "19", "--d", "3", "--mode", "witness",
                       "--format", "jsonl", "--workers", workers),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_stdout_env(buffered)) as proc:
        rows = [json.loads(proc.stdout.readline()) for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert [r["m"] for r in rows] == ["T^3+2", "T^3+3"]
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err

"""Command-line surface.

Subcommands: invariants, scan, bpoly, powersum, genus, verify; argv[0]
names one, parsed by its own parser alone (the parser of every command is
built for top-level --help and usage errors only).  Machine payload goes
to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 domain errors (bad input, reducible modulus, failed verify), 2 internal
invariant violations, 3 resource limits (cost ceilings, including a verify
suite whose whole-run estimate is over budget, refused before it starts;
a refused cost of more than 30 digits is shown by its digit count; memory
exhaustion; a scan worker process that died) and interrupts (one
"interrupted" line).  An error raised in a scan worker exits with its own
code and line, as in one process.  A scan streams its rows, so a failure
after its set-up leaves the complete rows before it; a reader that closes
stdout early ends the scan with exit 1.  The environment variable
CARLITZ_HW_BUDGET (decimal integer) overrides the cost ceilings of exact
and reduced power sums, residue-mode streams and verify suites;
powersums.check_budget reads it where a cost is checked, so a malformed
value is an error (exit 1) only there.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

# the engine only: the commands import bpoly, the oracle and json
from . import invariants, powersums, scan
from .errors import DomainError, InternalError, PolyParseError, ResourceLimitError
from .fieldcore import make_field
from .polyring import Modulus, format_poly, parse_poly


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through the domain-error
    # path instead so exit codes keep their documented meaning
    def error(self, message):
        raise DomainError(message)


def _build_parser() -> _Parser:
    # only when argv[0] names no command (top-level --help, usage errors):
    # run gives a named one the parser that add_parser builds for it here
    top = _Parser(prog="carlitz-hw",
                  description="Hasse-Witt invariants and ordinariness of "
                              "cyclotomic function fields over F_q(T)")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return top


def _add_arguments(cmd: _Parser, name: str) -> None:
    cmd.add_argument("--p", type=int, required=True, help="characteristic (prime)")
    cmd.add_argument("--e", type=int, default=1, help="extension degree (default 1)")
    cmd.add_argument("--field-poly", default=None,
                     help="defining polynomial of F_q over F_p in x "
                          "(only with --e > 1; default: least irreducible)")
    if name == "invariants":
        cmd.add_argument("--m", required=True, help="monic irreducible modulus in T")
    if name in ("scan", "genus", "verify"):
        cmd.add_argument("--d", type=int, required=True)
    if name == "scan":
        cmd.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        cmd.add_argument("--mode", choices=("full", "witness"), default="full")
        cmd.add_argument("--limit", type=int, default=None)
    if name == "powersum":
        cmd.add_argument("--i", type=int, required=True)
    if name in ("bpoly", "powersum"):
        cmd.add_argument("--n", type=int, required=True)
        group = cmd.add_mutually_exclusive_group(required=True)
        group.add_argument("--mod", default=None,
                           help="reduce mod this modulus" if name == "bpoly" else None)
        group.add_argument("--exact", action="store_true")
    if name == "verify":
        cmd.add_argument("--suites", default=",".join(invariants.SUITE_NAMES),
                         help="comma-separated subset of: "
                              + ",".join(invariants.SUITE_NAMES))


def _make_ctx(args):
    if args.field_poly is not None:
        if args.e == 1:
            raise DomainError("--field-poly is only accepted when --e > 1")
        text = "".join(args.field_poly.split())
        if "T" in text:  # x is the field polynomial's variable, and T no term of it
            raise PolyParseError("expected term c*x^k, c*x, x^k, x or c",
                                 text, text.index("T"))
        try:
            coeffs = parse_poly(text.replace("x", "T"), make_field(args.p)).coeffs
        except PolyParseError as exc:  # the grammar and the text in x, as typed
            message, _, pos = exc.args
            raise PolyParseError(message.replace("T", "x"), text, pos) from None
        ctx = make_field(args.p, args.e, coeffs)
    else:
        ctx = make_field(args.p, args.e)
    if ctx.e > 1:
        # reproducibility: the defining polynomial is part of the result
        print(f"note: field modulus {ctx.format_field_modulus()}", file=sys.stderr)
    return ctx


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj, separators=(",", ":")))


def _cmd_invariants(args) -> int:
    ctx = _make_ctx(args)
    rep = invariants.hasse_witt(Modulus(parse_poly(args.m, ctx)))
    _print_json(rep.to_json_dict())
    return 0


def _cmd_scan(args) -> int:
    ctx = _make_ctx(args)
    # every set-up failure raises here, before any output or --out file
    rows = scan.stream_degree(ctx, args.d, mode=args.mode, limit=args.limit,
                              workers=args.workers)
    with contextlib.closing(rows):
        scan.write_records(rows, args.format, args.out)
    return 0


def _cmd_bpoly(args) -> int:
    from .bpoly import b_poly

    ctx = _make_ctx(args)
    m = None if args.mod is None else Modulus(parse_poly(args.mod, ctx))
    poly = b_poly(args.n, ctx, m)
    parts = [str(poly.u_degree)]
    parts.extend(format_poly(c) for c in poly.coeffs)
    print("; ".join(parts))
    return 0


def _cmd_powersum(args) -> int:
    ctx = _make_ctx(args)
    if args.mod is not None:
        poly = powersums.s_mod(args.i, args.n, Modulus(parse_poly(args.mod, ctx)))
    else:
        poly = powersums.s_exact(args.i, args.n, ctx)
    print(f"{poly.degree}; {format_poly(poly)}")
    return 0


def _cmd_genus(args) -> int:
    ctx = _make_ctx(args)
    g, g_plus = invariants.genus(ctx, args.d)
    _print_json({"p": ctx.p, "e": ctx.e, "q": ctx.q, "d": args.d, "g": g, "g_plus": g_plus})
    return 0


def _cmd_verify(args) -> int:
    from .oracle import run_verify_suite

    ctx = _make_ctx(args)
    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    if not names:
        raise DomainError("--suites must name at least one suite")
    unknown = [name for name in names if name not in invariants.SUITE_NAMES]
    if unknown:  # before any suite runs, so a failed run prints no result
        raise DomainError(f"unknown suite {unknown[0]!r}; choose from {invariants.SUITE_NAMES}")
    all_passed = True
    for name in names:
        checks = run_verify_suite(name, ctx, args.d)
        passed = all(c.passed for c in checks)
        all_passed = all_passed and passed
        line = f"suite={name} result={'pass' if passed else 'fail'}"
        for c in checks:
            if not c.passed:
                line += f" failed={c.name}"
                if c.detail:
                    line += f" detail={c.detail!r}"
                break
        print(line)
    return 0 if all_passed else 1


# the commands in the order --help lists them: (handler, help line)
_COMMANDS = {
    "invariants": (_cmd_invariants, "full invariant report for one modulus"),
    "scan": (_cmd_scan, "classify all irreducible moduli of a degree"),
    "bpoly": (_cmd_bpoly, "generating polynomial of one exponent"),
    "powersum": (_cmd_powersum, "power sum over monic polynomials of one degree"),
    "genus": (_cmd_genus, "genus pair for all moduli of a degree"),
    "verify": (_cmd_verify, "run the identity suites at (q, d)"),
}


def run(argv=None) -> int:
    """Run the command argv[0] (argv: sys.argv[1:] when None); its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in _COMMANDS:
            parser = _Parser(prog=f"carlitz-hw {argv[0]}")
            _add_arguments(parser, argv[0])
            return _COMMANDS[argv[0]][0](parser.parse_args(argv[1:]))
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (DomainError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, MemoryError) as exc:
        print(f"resource limit: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 3


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader of stdout has gone (`carlitz-hw scan ... | head`); what
        # is left in the buffer goes to /dev/null, not to a second error at exit
        if code == 0:
            print(f"error: {exc}", file=sys.stderr)
            code = 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()

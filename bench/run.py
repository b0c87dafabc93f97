#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `carlitz-hw scan`.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --selfcheck

Each workload drives the real CLI entry point carlitz_hw.cli.run(argv)
in-process with --workers 1, in whole rounds until --seconds of work have
passed (at least one round).  Times are reference-normalised seconds (see
refclock.py); raw seconds are printed beside them.  With --trace 0 the last
line of stdout is a JSON object holding the end-to-end metrics; with
--trace 1 one more round runs with spans at every layer's public functions
and the JSON holds the per-layer metrics (the spans go to
bench/out/trace-<workload>.json).  The seed picks the oracle's sample of
moduli and exponents; the scanned inputs are fixed per workload.  Outputs
are checked against the independent oracle (oracle.py, checks.py) outside
the timed calls.  --selfcheck runs the whole harness, traced and untraced,
on q = 3, d = 3 in a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import checks
import oracle
from refclock import RefClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

WORKLOADS = {
    "scan-full-q7d3": dict(p=7, e=1, d=3, mode="full", limit=None),
    "scan-witness-q7d3": dict(p=7, e=1, d=3, mode="witness", limit=28),
    "scan-one-q4d6": dict(p=2, e=2, d=6, mode="full", limit=1),
    "scan-witness-q4d6": dict(p=2, e=2, d=6, mode="witness", limit=None),
}
SELFCHECK = {
    "selfcheck-full-q3d3": dict(p=3, e=1, d=3, mode="full", limit=None),
    "selfcheck-witness-q3d3": dict(p=3, e=1, d=3, mode="witness", limit=None),
}

IMPORT_PROBES = 9   # fresh interpreters timing `import carlitz_hw.cli`
# make_field + irreducible_enumerate repeat at least SETUP_REPS times and
# until SETUP_SECONDS of work have passed; short set-ups need many samples
SETUP_REPS = 3
SETUP_SECONDS = 1.5

# Every traced public name, as (module, attribute, reported metrics); the
# metric prefix is "module.attribute".  cli.import_s, scan.records,
# scan.write_records.bytes, invariants.exponents_per_degree_eval and
# trace.overhead_s are reported besides.
LAYERS = [
    ("fieldcore", "make_field", ("calls", "self_s")),
    ("polyring", "irreducible_enumerate", ("self_s",)),
    ("polyring", "is_irreducible", ("calls", "self_s")),
    ("polyring", "Modulus", ("calls", "self_s")),
    ("polyring", "residue_pow", ("calls", "self_s")),
    ("powersums", "s_mod", ("calls", "self_s")),
    ("bpoly", "b_poly", ("calls", "self_s")),
    ("digits", "target_degree", ("calls", "self_s")),
    ("invariants", "hasse_witt", ("calls", "self_s")),
    ("invariants", "is_ordinary", ("calls", "self_s")),
    ("invariants", "is_ordinary_plus", ("calls", "self_s")),
    ("scan", "scan_degree", ("self_s",)),
    ("scan", "write_records", ("self_s",)),
]


class ProgramMissing(Exception):
    pass


def load_program():
    """Import carlitz_hw from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import carlitz_hw.cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import carlitz_hw from {SRC}: {exc}") from exc
    if not Path(carlitz_hw.cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"carlitz_hw was imported from {carlitz_hw.cli.__file__}, "
                             f"not from {SRC}")
    return carlitz_hw


def scan_argv(spec):
    argv = ["scan", "--p", str(spec["p"])]
    if spec["e"] > 1:
        argv += ["--e", str(spec["e"])]
    argv += ["--d", str(spec["d"]), "--mode", spec["mode"]]
    if spec["limit"] is not None:
        argv += ["--limit", str(spec["limit"])]
    return argv + ["--format", "csv", "--workers", "1"]


class Capture:
    """Stand-in for sys.stdout: keeps the text and marks the work-clock time
    at which the first data row (after the CSV header) is complete."""

    def __init__(self, clock):
        self.clock = clock
        self.parts = []
        self.first_row = None
        self._lines = 0

    def write(self, s):
        self.parts.append(s)
        if self.first_row is None:
            self._lines += s.count("\n")
            if self._lines >= 2:
                self.first_row = self.clock.mark()
        return len(s)

    def flush(self):
        pass

    def text(self):
        return "".join(self.parts)


def scan_round(clock, run, argv):
    """One timed call of run(argv) with stdout and stderr captured.  An
    exception that escapes the program counts as a failed round (rc 1), with
    its traceback in the round's stderr."""
    out, err = Capture(clock), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return run(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
                return 1

    rc, a, b = clock.measure(call)
    return {
        "rc": rc, "text": out.text(), "stderr": err.getvalue(),
        "wall": clock.between(a, b),
        "first": clock.between(a, out.first_row or b),
    }


def import_times(n):
    """(raw, normalised) seconds of `import carlitz_hw.cli` in n fresh
    interpreters, after one untimed warm-up that writes the bytecode caches."""
    out = []
    for i in range(n + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "import_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise ProgramMissing(f"import probe failed: {proc.stderr.strip()[-300:]}")
        if i:
            raw, norm = map(float, proc.stdout.split())
            out.append((raw, norm))
    return out


def med(pairs):
    """Medians of the raw and normalised halves of (raw, norm) pairs."""
    return (statistics.median(p[0] for p in pairs), statistics.median(p[1] for p in pairs))


def full_mode_values(pkg, spec, text, rng):
    """The program's full-mode (ordinary, ordinary_plus, first defect) for a
    seeded sample of the listed moduli, when a full evaluation is cheap."""
    q = spec["p"] ** spec["e"]
    if spec["mode"] != "witness" or q ** spec["d"] - 1 > checks.EXHAUSTIVE_MAX_ORDER:
        return {}
    from carlitz_hw.invariants import hasse_witt
    from carlitz_hw.polyring import Modulus, parse_poly
    ctx = pkg.make_field(spec["p"], spec["e"])
    records, _ = checks.parse_csv(text)
    out = {}
    for r in rng.sample(records, min(checks.LAMBDA_SAMPLE, len(records))):
        rep = hasse_witt(Modulus(parse_poly(r["m"], ctx)))
        out[r["m"]] = (rep.ordinary, rep.ordinary_plus,
                       rep.defects[0].n if rep.defects else None)
    return out


def traced_round(pkg, clock, argv):
    """One round with every layer traced; returns (round, tracer)."""
    tracer = Tracer(clock.now)
    try:
        for mod, attr, _ in LAYERS:
            tracer.install(f"{mod}.{attr}", importlib.import_module(f"carlitz_hw.{mod}"), attr)
        result = scan_round(clock, tracer.wrap("cli.run", pkg.cli.run), argv)
    finally:
        tracer.uninstall()
    return result, tracer


def layer_metrics(tracer, traced, untraced_wall, spec, import_s):
    """{name: (value, unit, None)}; self times are normalised with the
    traced round's speed factor."""
    factor = traced["wall"][1] / traced["wall"][0] if traced["wall"][0] else 1.0
    totals = tracer.totals()
    metrics = {"cli.import_s": (import_s, "s", None)}
    for mod, attr, kinds in LAYERS:
        calls, self_s = totals.get(f"{mod}.{attr}", (0, 0.0))
        if "calls" in kinds:
            metrics[f"{mod}.{attr}.calls"] = (calls, "count", None)
        if "self_s" in kinds:
            metrics[f"{mod}.{attr}.self_s"] = (self_s * factor, "s", None)
    records = max(traced["text"].count("\n") - 1, 0)
    q = spec["p"] ** spec["e"]
    b_calls = totals.get("bpoly.b_poly", (0, 0.0))[0]
    exponents = records * (q ** spec["d"] - 2)
    metrics["invariants.exponents_per_degree_eval"] = (
        exponents / b_calls if b_calls else float(exponents), "ratio", None)
    # a scan's stdout is exactly the one payload write_records writes
    metrics["scan.write_records.bytes"] = (len(traced["text"].encode()), "bytes", None)
    metrics["scan.records"] = (records, "count", None)
    metrics["trace.overhead_s"] = (traced["wall"][1] - untraced_wall, "s", None)
    base = f"{records} moduli x {q ** spec['d'] - 2} exponents / {b_calls} b_poly calls"
    return metrics, base


def run_workload(name, spec, seed, seconds, trace, probes=IMPORT_PROBES,
                 setup_reps=SETUP_REPS, setup_seconds=SETUP_SECONDS):
    """Set up, run and check one workload; returns the result object and
    lines of human-readable report."""
    report = [f"workload {name}: carlitz-hw {' '.join(scan_argv(spec))}"]
    rng = random.Random(seed)
    oracle.headline_self_test()
    pkg = load_program()
    imports = import_times(probes)
    from carlitz_hw.polyring import irreducible_enumerate

    rounds = []
    with RefClock() as clock:
        setups = []
        start = clock.now()
        while len(setups) < setup_reps or clock.now() - start < setup_seconds:
            ctx, a, b = clock.measure(pkg.make_field, spec["p"], spec["e"])
            _, c, d = clock.measure(irreducible_enumerate, ctx, spec["d"])
            (r1, n1), (r2, n2) = clock.between(a, b), clock.between(c, d)
            setups.append((r1 + r2, n1 + n2))
        argv = scan_argv(spec)
        start = clock.now()
        while not rounds or clock.now() - start < seconds:
            rounds.append(scan_round(clock, pkg.cli.run, argv))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = tracer = None
        if trace:
            traced, tracer = traced_round(pkg, clock, argv)

    # -- checks, outside every timed call --
    all_rounds = rounds + ([traced] if traced else [])
    expected = len(oracle.irreducibles(oracle.Field(spec["p"], spec["e"]), spec["d"]))
    if spec["limit"] is not None:
        expected = min(expected, spec["limit"])
    problems = []
    failed = 0
    for r in all_rounds:
        if r["rc"] != 0:
            failed += expected
            problems.append(f"cli.run returned {r['rc']}: {r['stderr'].strip()[-200:]}")
    first = rounds[0]["text"]
    if any(checks.strip_elapsed(r["text"]) != checks.strip_elapsed(first) for r in all_rounds):
        problems.append("rounds differ in more than elapsed_ms")
    try:
        full_values = full_mode_values(pkg, spec, first, rng)
        found, notes = checks.check_scan(spec, first, rng, full_values)
    except Exception as exc:  # e.g. no CSV header after a failed round
        found, notes = [f"the output could not be checked: {exc!r}"], []
    problems += found
    report += [f"  check: {n}" for n in notes] + [f"  PROBLEM: {p}" for p in problems]

    wall = med([r["wall"] for r in rounds])
    first_rec = med([r["first"] for r in rounds])
    imp = med(imports)
    setup = med(setups)
    report.append(f"  rounds: {len(rounds)}, kernel samples: {len(clock.samples)}")
    report.append(f"  import: {imp[1]:.4f} s normalised ({imp[0]:.4f} s raw), "
                  f"median of {len(imports)}")
    report.append(f"  make_field + irreducible_enumerate: {setup[1]:.4f} s normalised "
                  f"({setup[0]:.4f} s raw), median of {len(setups)}")
    if trace:
        metrics, base = layer_metrics(tracer, traced, wall[1], spec, imp[1])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{name}.json"
        tracer.write(path, {"workload": name, "argv": argv, "seed": seed,
                            "clock": "work seconds, not normalised"})
        report.append(f"  trace: {len(tracer.span_start)} spans -> {path.relative_to(HERE.parent)}")
        report.append(f"  exponents_per_degree_eval base: {base}")
        report.append(f"  traced wall {traced['wall'][1]:.4f} s normalised "
                      f"({traced['wall'][0]:.4f} s raw)")
    else:
        metrics = {  # name: (value, unit, raw seconds)
            "wall_s": (wall[1], "s", wall[0]),
            "setup_s": (imp[1] + setup[1], "s", imp[0] + setup[0]),
            "first_record_s": (first_rec[1], "s", first_rec[0]),
            "peak_rss_mb": (peak_rss_mb, "MB", None),
        }
    for key, (value, unit, raw) in metrics.items():
        beside = "" if raw is None else f"   (raw {raw:.4f} s)"
        report.append(f"  {key:45s} {value:14.6f} {unit}{beside}")
    result = {
        "correct": not problems,
        "attempted": expected * len(all_rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    return result, report


def selfcheck():
    """Every workload path, traced and untraced, at q = 3, d = 3; the metric
    names and units must be exactly those BENCHMARK.json declares."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    ok = True
    for name, spec in SELFCHECK.items():
        for trace in (0, 1):
            result, report = run_workload(name, spec, seed=0, seconds=0, trace=trace,
                                          probes=1, setup_reps=1, setup_seconds=0)
            print("\n".join(report))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                print(f"  PROBLEM: metrics {sorted(set(got) ^ set(want[trace]))} or their "
                      "units differ from BENCHMARK.json")
                ok = False
            ok = ok and result["correct"] and result["failed"] == 0
    print("selfcheck:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        result, report = run_workload(args.workload, WORKLOADS[args.workload],
                                      args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    # a failed round is also a problem, so this covers failed > 0 as well
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

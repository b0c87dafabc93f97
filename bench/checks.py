"""Checks of `carlitz-hw scan --format csv` output against the oracle and
against properties the method must have.  No check compares with a saved
copy of earlier output, and none reads the elapsed_ms column.

`check_scan` returns a list of problems (empty when the output is correct)
and a list of one-line notes saying what was checked.  Where a check is too
costly on every modulus or exponent, it runs on a sample drawn from the
caller's seeded random.Random.
"""

from __future__ import annotations

import csv
import io

import oracle

COLUMNS = ["m", "d", "g", "g_plus", "lambda", "lambda_plus", "ordinary",
           "ordinary_plus", "supersingular", "first_defect_n", "elapsed_ms"]
COMPARED = [c for c in COLUMNS if c not in ("m", "elapsed_ms")]

# Sample sizes.  The lambda check brute-forces every exponent of a modulus
# and is run only up to q^d - 1 = EXHAUSTIVE_MAX_ORDER (0.1 s per modulus at
# q = 7, d = 3); beyond it the oracle checks a sample of exponents.
PREFIX_SAMPLE = 3
LAMBDA_SAMPLE = 4
EXPONENT_SAMPLE = 40
EXHAUSTIVE_MAX_ORDER = 342


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != COLUMNS:
        raise ValueError(f"unexpected header {rows[:1]}")
    return [dict(zip(COLUMNS, r)) for r in rows[1:] if len(r) == len(COLUMNS)], len(rows) - 1


def strip_elapsed(text):
    """The payload with the elapsed_ms column removed, for comparing rounds."""
    return [r[:-1] for r in csv.reader(io.StringIO(text))]


def _int(v):
    return None if v == "" else int(v)


def _bool(v):
    return {"true": True, "false": False, "": None}[v]


def check_scan(spec, text, rng, full_values=None):
    """spec: dict with p, e, d, mode ('full' | 'witness') and limit.
    full_values: {m text: (ordinary, ordinary_plus, first_defect_n)} from
    the program's full mode for some of the moduli (witness mode only)."""
    problems, notes = [], []
    F = oracle.Field(spec["p"], spec["e"])
    q, d = F.q, spec["d"]
    top = q**d - 2
    full = spec["mode"] == "full"

    def bad(msg):
        problems.append(msg)

    try:
        records, n_lines = parse_csv(text)
    except (ValueError, KeyError) as exc:
        return [f"unparsable output: {exc}"], notes
    if len(records) != n_lines:
        bad("rows with a wrong number of cells")

    # 1. the moduli are the monic irreducibles of degree d, in order
    expected = oracle.irreducibles(F, d)
    if spec["limit"] is not None:
        expected = expected[:spec["limit"]]
    try:
        listed = [oracle.parse_poly(F, r["m"]) for r in records]
    except ValueError as exc:
        return problems + [f"unparsable modulus: {exc}"], notes
    if listed != expected:
        bad(f"moduli differ from the oracle's enumeration ({len(listed)} listed, "
            f"{len(expected)} expected)")
        return problems, notes
    notes.append(f"moduli: {len(listed)} = oracle enumeration, in order")

    # 2.-4. genera, bounds and flags on every record
    g_closed = oracle.genus_closed(q, d)
    if g_closed != oracle.genus_from_targets(q, d):
        bad(f"oracle closed-form genus {g_closed} != target sums")
    g, gp = g_closed
    try:
        vals = [{k: (_bool(r[k]) if k in ("ordinary", "ordinary_plus", "supersingular")
                     else r[k] if k == "m" else _int(r[k])) for k in COLUMNS}
                for r in records]
    except (ValueError, KeyError) as exc:
        return problems + [f"bad cell: {exc}"], notes
    for v in vals:
        m = v["m"]
        if (v["d"], v["g"], v["g_plus"]) != (d, g, gp):
            bad(f"{m}: (d, g, g+) = {(v['d'], v['g'], v['g_plus'])}, want {(d, g, gp)}")
        if v["elapsed_ms"] is None or v["elapsed_ms"] < 0:
            bad(f"{m}: elapsed_ms missing")
        if full:
            lam, lamp = v["lambda"], v["lambda_plus"]
            if lam is None or lamp is None or v["supersingular"] is None:
                bad(f"{m}: full mode left lambda or supersingular empty")
                continue
            if not (0 <= lam <= g and 0 <= lamp <= gp):
                bad(f"{m}: lambda {lam} / lambda+ {lamp} outside [0, g] / [0, g+]")
            if v["ordinary"] != (lam == g) or v["ordinary_plus"] != (lamp == gp):
                bad(f"{m}: ordinary flags disagree with lambda = g / lambda+ = g+")
            if v["supersingular"] != (lam == 0):
                bad(f"{m}: supersingular flag disagrees with lambda = 0")
        elif (v["lambda"], v["lambda_plus"], v["supersingular"]) != (None, None, None):
            bad(f"{m}: witness mode filled lambda, lambda+ or supersingular")
        if v["ordinary"] is None or v["ordinary_plus"] is None:
            bad(f"{m}: ordinary flags empty")
        if v["ordinary"] != (v["first_defect_n"] is None):
            bad(f"{m}: first_defect_n present iff not ordinary violated")
    notes.append(f"g, g+ = {g}, {gp}: closed form = oracle target sums; "
                 "bounds and flag equivalences on every record")

    # 5. at each first_defect_n the degree drops; below it every target is met
    polys = dict(zip((v["m"] for v in vals), listed))
    defective = [v for v in vals if v["first_defect_n"] is not None]
    for v in defective:
        n0 = v["first_defect_n"]
        if not 1 <= n0 <= top:
            bad(f"{v['m']}: first_defect_n {n0} out of range")
        elif oracle.bn_degree(F, polys[v["m"]], n0) >= oracle.target(q, n0):
            bad(f"{v['m']}: oracle meets the target at first_defect_n = {n0}")
    for v in rng.sample(defective, min(PREFIX_SAMPLE, len(defective))):
        n0 = v["first_defect_n"]
        degs = oracle.degree_stream(F, polys[v["m"]], n0)
        below = [n for n in range(1, n0) if degs[n - 1] != oracle.target(q, n)]
        if below or degs[-1] >= oracle.target(q, n0):
            bad(f"{v['m']}: oracle first defect is not n = {n0} (earlier: {below[:3]})")
    notes.append(f"first_defect_n: oracle drop at all {len(defective)}; "
                 f"no earlier defect on a sample of {min(PREFIX_SAMPLE, len(defective))}")

    # 6. oracle lambda on a sample of moduli, or degrees at sampled exponents
    if top + 1 <= EXHAUSTIVE_MAX_ORDER:
        for v in rng.sample(vals, min(LAMBDA_SAMPLE, len(vals))):
            lam, lamp, defects = oracle.invariants(F, polys[v["m"]])
            zero_defect = any(n % (q - 1) == 0 for n in defects)
            want = {"ordinary": not defects, "ordinary_plus": not zero_defect,
                    "first_defect_n": defects[0] if defects else None}
            if full:
                want.update({"lambda": lam, "lambda_plus": lamp,
                             "supersingular": lam == 0})
            got = {k: v[k] for k in want}
            if got != want:
                bad(f"{v['m']}: program {got} != oracle {want}")
        notes.append(f"oracle lambda, lambda+ and defects on {min(LAMBDA_SAMPLE, len(vals))} "
                     "sampled moduli")
    else:
        v = rng.choice(vals)
        m, n0 = polys[v["m"]], v["first_defect_n"]
        for n in sorted(rng.sample(range(1, top + 1), min(EXPONENT_SAMPLE, top))):
            deg, t = oracle.bn_degree(F, m, n), oracle.target(q, n)
            if deg > t or ((n0 is None or n < n0) and deg != t):
                bad(f"{v['m']}: oracle degree {deg} vs target {t} at n = {n} "
                    f"contradicts first_defect_n = {n0}")
        notes.append(f"oracle degrees at {EXPONENT_SAMPLE} sampled exponents of {v['m']}")
        zero_class = range(q - 1, top + 1, q - 1)
        if v["ordinary_plus"]:
            for n in rng.sample(zero_class, min(EXPONENT_SAMPLE, len(zero_class))):
                if oracle.bn_degree(F, m, n) != oracle.target(q, n):
                    bad(f"{v['m']}: ordinary_plus true but the oracle drops at n = {n}")
            notes.append(f"ordinary_plus of {v['m']} at {EXPONENT_SAMPLE} zero-class exponents")
        else:
            first = next((n for n in zero_class
                          if oracle.bn_degree(F, m, n) != oracle.target(q, n)), None)
            if first is None:
                bad(f"{v['m']}: ordinary_plus false but the oracle finds no zero-class defect")
            notes.append(f"ordinary_plus false for {v['m']}: "
                         f"oracle zero-class defect at n = {first}")

    # 7. records are constant on orbits under T -> aT + c and coefficient Frobenius
    orbit_of = oracle.orbits(F, listed)
    listed_set = set(listed)
    by_poly = dict(zip(listed, vals))
    whole = {o for o in orbit_of.values() if o <= listed_set}
    for orbit in whole:
        rows = {tuple(by_poly[x][k] for k in COMPARED) for x in orbit}
        if len(rows) != 1:
            bad(f"records differ within an orbit of {len(orbit)} moduli")
    notes.append(f"orbit invariance on {len(whole)} whole orbits "
                 f"({sum(len(o) for o in whole)} moduli)")

    # 8. witness flags and first_defect_n equal the full-mode values
    if not full and full_values:
        for m_text, want in full_values.items():
            v = next((x for x in vals if x["m"] == m_text), None)
            got = None if v is None else (v["ordinary"], v["ordinary_plus"], v["first_defect_n"])
            if got != want:
                bad(f"{m_text}: witness {got} != full mode {want}")
        notes.append(f"witness = full mode on {len(full_values)} sampled moduli")
    return problems, notes

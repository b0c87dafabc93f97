"""Exhaustive classification of all monic irreducible moduli of one degree.

The work unit is a single modulus; moduli are distributed over a process
pool and the results come back in enumeration order, so the output stream
is byte-identical for any worker count except for the elapsed_ms column.
Contexts are rebuilt inside each worker from (p, e, field_modulus, limit)
rather than pickled.

Output formats share one column set:
    m,d,g,g_plus,lambda,lambda_plus,ordinary,ordinary_plus,supersingular,
    first_defect_n,elapsed_ms
CSV writes lowercase booleans and empty cells for unknown values; JSONL
writes one object per line with the same key order and null for unknowns.
In witness-only mode the ordinariness flags and first_defect_n come from
one early-exit pass (invariants.first_defects) and the lambda/supersingular
fields stay unknown.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter

from .errors import DomainError
from .fieldcore import FieldCtx, make_field
from .invariants import first_defects, genus, hasse_witt
from .polyring import FqPoly, Modulus, format_poly, irreducible_enumerate

MODE_FULL = "full"
MODE_WITNESS = "witness-only"

CSV_HEADER = ("m,d,g,g_plus,lambda,lambda_plus,ordinary,ordinary_plus,"
              "supersingular,first_defect_n,elapsed_ms")


@dataclass(frozen=True)
class ScanRecord:
    m: str
    d: int
    g: int
    g_plus: int
    lambda_: int | None
    lambda_plus: int | None
    ordinary: bool
    ordinary_plus: bool
    supersingular: bool | None
    first_defect_n: int | None
    elapsed_ms: int

    def as_ordered_dict(self) -> dict:
        return {
            "m": self.m, "d": self.d, "g": self.g, "g_plus": self.g_plus,
            "lambda": self.lambda_, "lambda_plus": self.lambda_plus,
            "ordinary": self.ordinary, "ordinary_plus": self.ordinary_plus,
            "supersingular": self.supersingular,
            "first_defect_n": self.first_defect_n,
            "elapsed_ms": self.elapsed_ms,
        }


@lru_cache(maxsize=8)
def _ctx_cache(p, e, field_modulus, limit) -> FieldCtx:
    return make_field(p, e, None if e == 1 else field_modulus, limit)


def _scan_one(task) -> ScanRecord:
    p, e, field_modulus, limit, m_coeffs, mode, use_orbit, budget = task
    ctx = _ctx_cache(p, e, field_modulus, limit)
    start = perf_counter()
    # m_coeffs come from irreducible_enumerate, which tested them already
    m = Modulus._trusted(FqPoly(ctx, m_coeffs, check=False))
    if mode == MODE_WITNESS:
        witness, witness_plus = first_defects(m, use_orbit, budget)
        g, g_plus = genus(ctx, m.d)
        record = ScanRecord(
            m=format_poly(m.poly), d=m.d, g=g, g_plus=g_plus,
            lambda_=None, lambda_plus=None,
            ordinary=witness is None, ordinary_plus=witness_plus is None,
            supersingular=None, first_defect_n=witness,
            elapsed_ms=_ms_since(start))
    else:
        rep = hasse_witt(m, use_orbit, budget)
        record = ScanRecord(
            m=rep.m, d=rep.d, g=rep.g, g_plus=rep.g_plus,
            lambda_=rep.lambda_, lambda_plus=rep.lambda_plus,
            ordinary=rep.ordinary, ordinary_plus=rep.ordinary_plus,
            supersingular=rep.supersingular,
            first_defect_n=rep.defects[0].n if rep.defects else None,
            elapsed_ms=_ms_since(start))
    return record


def _ms_since(start):
    return int(round((perf_counter() - start) * 1000))


def scan_degree(ctx: FieldCtx, d: int, mode: str = MODE_FULL,
                limit: int | None = None, workers: int = 1,
                use_orbit: bool = True,
                budget: int | None = None) -> list[ScanRecord]:
    """One record per monic irreducible modulus of degree d, in enumeration
    order; `limit` truncates the modulus list, `workers` sizes the pool and
    `budget` is the residue-mode cost ceiling of each degree stream."""
    if mode not in (MODE_FULL, MODE_WITNESS):
        raise DomainError(f"unknown scan mode {mode!r}")
    moduli = irreducible_enumerate(ctx, d)
    if limit is not None:
        if limit < 0:
            raise DomainError(f"limit must be >= 0, got {limit}")
        moduli = moduli[:limit]
    tasks = [(ctx.p, ctx.e, ctx.field_modulus, ctx.limit,
              m.poly.coeffs, mode, use_orbit, budget) for m in moduli]
    if workers <= 1 or len(tasks) <= 1:
        return [_scan_one(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_scan_one, tasks))


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def write_records(records, fmt: str, path: str | None = None) -> None:
    """Serialize records as csv or jsonl to path, or stdout when path is None."""
    if fmt not in ("csv", "jsonl"):
        raise DomainError(f"unknown output format {fmt!r}")
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for r in records:
            writer.writerow([_csv_cell(v) for v in r.as_ordered_dict().values()])
    else:
        for r in records:
            buf.write(json.dumps(r.as_ordered_dict(), separators=(",", ":")))
            buf.write("\n")
    payload = buf.getvalue()
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)

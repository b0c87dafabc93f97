"""Exhaustive classification of all monic irreducible moduli of one degree.

A scan builds one residue field for its (q, d), the discrete-log table of
F_{q^d} on the least primitive polynomial m0 (powersums.residue_field,
its cost checked from (q, d) before m0 is sought), and classifies each modulus
listed there (LogTable.roots) in enumeration order, with no irreducibility
test, no Modulus and no field of its own.  Scan sees a modulus only as its
coefficient codes; how it sits at a root is powersums' concern.

The record of a modulus, apart from m and elapsed_ms, is constant on its
orbit under T -> alpha*T + c and, when e > 1, the p-th power map on
coefficients: such a map sigma permutes the monic polynomials of each
degree i up to the factor alpha^i, so sigma(s_i(n)) = alpha^(i*n) s_i(n)
(s_i(n) itself under the Frobenius), and m divides s_i(n) exactly when the
monic image of m does.  The degree reader reads nothing but which s_i(n)
vanish.  So a scan classifies the first modulus of each orbit in
enumeration order and copies its record to the other members, with their
own m and elapsed_ms 0; the shared table labels each modulus with its
orbit as it lists them (LogTable.first), always: the tests check each row
against the per-modulus engine.  The reversal m -> T^d m(1/T) is no
symmetry of the record.

The work unit is one orbit representative; representatives are distributed
over a process pool and come back in enumeration order, so the output is
byte-identical for any worker count but for elapsed_ms.  A task carries
the coefficient codes of its modulus; each worker reads the field from
powersums.shared_field, built once per process.  elapsed_ms is the time of
one classified modulus and excludes the field build.

Records stream (stream_degree): every set-up step runs before the first
record, and row i follows as soon as the record of first[i] <= i exists,
so the rows come in enumeration order, one classification apart.
write_records writes and flushes each row as it arrives, to stdout or a
file, so a failure part-way leaves the complete rows before it.

Output formats share one column set, COLUMNS, the fields of ScanRecord.
CSV writes lowercase booleans and empty cells for unknown values; only the
three flag columns are converted, as csv.writer writes None as an empty
cell and ints by str.  JSONL writes one object per line with the same key
order and null for unknowns.  A copied row's m is formatted from its codes.
Full mode reads one pass over the orbits (invariants.defect_pass), which
lists defective orbits only, never their members: every orbit for
lambda, lambda_plus and first_defect_n, with the flags and g - lambda
checked against the genus of the record, the check hasse_witt's report
rests on too (InternalError, exit 2).  Witness mode reads the early-exit
pass (invariants.first_defects), one read per orbit at most, and its
lambda/supersingular fields stay unknown.
"""

from __future__ import annotations

import csv
import sys
from collections import namedtuple
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from time import perf_counter

from .errors import DomainError, ResourceLimitError
from .fieldcore import FieldCtx
from .invariants import defect_pass, first_defects, genus
from .polyring import field_order, format_coeffs
from .powersums import LogTable, RootSums, residue_field, shared_field

MODE_FULL = "full"
MODE_WITNESS = "witness"


class ScanRecord(namedtuple("ScanRecord", [
        "m", "d", "g", "g_plus", "lambda_", "lambda_plus", "ordinary",
        "ordinary_plus", "supersingular", "first_defect_n", "elapsed_ms"])):
    """One scan row; lambda_, lambda_plus, supersingular and first_defect_n
    are None where unknown."""
    __slots__ = ()

    def as_ordered_dict(self) -> dict:
        """The record keyed by COLUMNS, in column order."""
        return dict(zip(COLUMNS, self))


# the output columns are the fields of ScanRecord, lambda_ written as lambda
COLUMNS = tuple(f.rstrip("_") for f in ScanRecord._fields)
CSV_HEADER = ",".join(COLUMNS)


def _scan_one(table: LogTable, task) -> ScanRecord:
    _, codes, mode = task
    start = perf_counter()
    g, g_plus = genus(table.ctx, table.d)
    sums = RootSums(table, codes)
    if mode == MODE_WITNESS:
        first, first_plus = first_defects(sums)
        lam = lam_plus = None
    else:
        first, first_plus, lam, lam_plus, _ = defect_pass(sums, (g, g_plus))
    return ScanRecord(
        m=format_coeffs(table.ctx, codes), d=table.d, g=g, g_plus=g_plus,
        lambda_=lam, lambda_plus=lam_plus,
        ordinary=first is None, ordinary_plus=first_plus is None,
        supersingular=None if lam is None else lam == 0, first_defect_n=first,
        elapsed_ms=_ms_since(start))


def _scan_pooled(task) -> ScanRecord:
    return _scan_one(shared_field(*task[0]), task)


def _ms_since(start):
    return int(round((perf_counter() - start) * 1000))


def stream_degree(ctx: FieldCtx, d: int, mode: str = MODE_FULL,
                  limit: int | None = None, workers: int = 1) -> Iterator[ScanRecord]:
    """One record per monic irreducible modulus of degree d, in enumeration
    order, each yielded as soon as its orbit representative is classified;
    `limit` truncates the modulus list and `workers` sizes the pool.  The
    budget is checked once by residue_field from (q, d) before m0 is
    searched for, and not at all when `limit` is 0.  One modulus
    per affine-Frobenius orbit (LogTable.first) is classified, and its
    record is copied to the other members with their own m and elapsed_ms 0.

    Every set-up step (the arguments, the q^d limit, the budget, the field,
    the orbits and the start of the pool) runs in this call, so a failure
    there raises before the first record exists.  Closing the generator
    drops the pool's tasks that have not started."""
    rows = _stream(ctx, d, mode, limit, workers)
    next(rows)  # runs the set-up, up to the bare yield
    return rows


def scan_degree(ctx: FieldCtx, d: int, mode: str = MODE_FULL,
                limit: int | None = None, workers: int = 1) -> list[ScanRecord]:
    """The records of stream_degree, as one list."""
    return list(stream_degree(ctx, d, mode, limit, workers))


def _stream(ctx, d, mode, limit, workers):
    if mode not in (MODE_FULL, MODE_WITNESS):
        raise DomainError(f"unknown scan mode {mode!r}")
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if limit == 0:
        field_order(ctx, d)  # an oversized (q, d) fails even with no modulus
        yield
        return
    table = residue_field(ctx, d)
    moduli = list(table.roots)
    first = table.first[:limit]
    key = (ctx.p, ctx.e, ctx.field_modulus, d)
    tasks = [(key, moduli[i], mode) for i, f in enumerate(first) if f == i]
    with _classified(table, tasks, workers) as done:
        yield
        # row i needs only the record of first[i] <= i, so each row goes out
        # as soon as the enumeration reaches it
        records = {}
        for i, f in enumerate(first):
            if f == i:
                records[i] = next(done)
                yield records[i]
            else:
                yield records[f]._replace(
                    elapsed_ms=0, m=format_coeffs(ctx, moduli[i]))


@contextmanager
def _classified(table: LogTable, tasks, workers: int):
    """The records of tasks in order, classified one at a time as they are
    asked for, or by a process pool that has every task from the start.  On
    exit the pool drops the tasks that have not started."""
    if workers <= 1 or len(tasks) <= 1:
        yield (_scan_one(table, t) for t in tasks)
        return
    # imported here: multiprocessing weighs on every single-worker run
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)))
        try:
            yield pool.map(_scan_pooled, tasks)
        finally:
            pool.shutdown(cancel_futures=True)
    except BrokenExecutor as exc:  # a worker process died
        raise ResourceLimitError(str(exc) or type(exc).__name__) from exc


# the flag columns by position: True == 1, so a lookup by value would hit d = 1
_FLAGS = tuple(COLUMNS.index(c) for c in ("ordinary", "ordinary_plus", "supersingular"))


def _csv_row(r: ScanRecord) -> list:
    """The cells of r for csv.writer, the flags in lowercase."""
    row = list(r)
    for i in _FLAGS:
        if row[i] is not None:
            row[i] = "true" if row[i] else "false"
    return row


def write_records(records, fmt: str, path: str | None = None) -> None:
    """Serialize records as csv or jsonl to path, or stdout when path is
    None, one row at a time as records yields them, each row flushed.  A
    failure while records is read leaves only complete rows."""
    if fmt not in ("csv", "jsonl"):
        raise DomainError(f"unknown output format {fmt!r}")
    with (nullcontext(sys.stdout) if path is None else
          open(path, "w", encoding="utf-8", newline="")) as out:
        if fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(COLUMNS)
            write = lambda r: writer.writerow(_csv_row(r))
        else:
            import json  # here: a csv run never loads it

            write = lambda r: out.write(
                json.dumps(r.as_ordered_dict(), separators=(",", ":")) + "\n")
        for r in records:
            write(r)
            out.flush()

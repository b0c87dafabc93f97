"""Exhaustive classification of all monic irreducible moduli of one degree.

A scan builds one residue field for its (q, d), the discrete-log table of
F_{q^d} on the least primitive polynomial m0 (powersums.residue_field), and
classifies each modulus at its root there, in enumeration order, with no
irreducibility test and no field of its own.

The record of a modulus, apart from m and elapsed_ms, is constant on its
orbit under T -> alpha*T + c and, when e > 1, the p-th power map on
coefficients: such a map sigma permutes the monic polynomials of each
degree i up to the factor alpha^i, so sigma(s_i(n)) = alpha^(i*n) s_i(n)
(s_i(n) itself under the Frobenius), and m divides s_i(n) exactly when the
monic image of m does.  The degree reader reads nothing but which s_i(n)
vanish.  So a scan classifies the first modulus of each orbit in
enumeration order and copies its record to the other members, with their
own m and elapsed_ms 0; the orbits are walked at their roots in the shared
table (_orbit_firsts), always: the tests check each row against the
per-modulus engine.  The reversal m -> T^d m(1/T) is no symmetry of the
record.

The work unit is one orbit representative; representatives are distributed
over a process pool and come back in enumeration order, so the output is
byte-identical for any worker count but for elapsed_ms.  A task carries
its modulus and root; each worker reads the field from
powersums.shared_field, built once per process.  elapsed_ms is the time of
one classified modulus and excludes the field build.

Records stream (stream_degree): every set-up step runs before the first
record, and row i follows as soon as the record of first[i] <= i exists,
so the rows come in enumeration order, one classification apart.
write_records writes and flushes each row as it arrives, to stdout or a
file, so a failure part-way leaves the complete rows before it.

Output formats share one column set, COLUMNS, the fields of ScanRecord.
CSV writes lowercase booleans and empty cells for unknown values; JSONL
writes one object per line with the same key order and null for unknowns.
In witness-only mode the ordinariness flags and first_defect_n come from
one early-exit pass (invariants.first_defects) and the lambda/supersingular
fields stay unknown.
"""

from __future__ import annotations

import csv
import sys
from collections import namedtuple
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from time import perf_counter

from .errors import DomainError, InternalError, ResourceLimitError
from .fieldcore import FieldCtx
from .invariants import first_defects, genus, hasse_witt
from .polyring import FqPoly, format_poly, least_primitive
from .powersums import LogTable, RootSums, residue_field, shared_field

MODE_FULL = "full"
MODE_WITNESS = "witness-only"


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
    _, m_coeffs, k, mode = task
    start = perf_counter()
    m = RootSums(table, k, FqPoly(table.ctx, m_coeffs, check=False))
    if mode == MODE_WITNESS:
        witness, witness_plus = first_defects(m)
        g, g_plus = genus(m.ctx, m.d)
        return ScanRecord(
            m=format_poly(m.poly), d=m.d, g=g, g_plus=g_plus,
            lambda_=None, lambda_plus=None,
            ordinary=witness is None, ordinary_plus=witness_plus is None,
            supersingular=None, first_defect_n=witness,
            elapsed_ms=_ms_since(start))
    rep = hasse_witt(m)
    return ScanRecord(
        m=rep.m, d=rep.d, g=rep.g, g_plus=rep.g_plus,
        lambda_=rep.lambda_, lambda_plus=rep.lambda_plus,
        ordinary=rep.ordinary, ordinary_plus=rep.ordinary_plus,
        supersingular=rep.supersingular,
        first_defect_n=rep.defects[0].n if rep.defects else None,
        elapsed_ms=_ms_since(start))


def _scan_pooled(task) -> ScanRecord:
    return _scan_one(shared_field(*task[0])[0], task)


def _ms_since(start):
    return int(round((perf_counter() - start) * 1000))


def _orbit_firsts(table: LogTable, moduli, count: int) -> list[int]:
    """first[i], for i < count, is the index of the first modulus in
    enumeration order of the orbit of moduli[i] = (codes, k) under the group
    generated by T -> alpha*T + c (alpha in F_q^*, c in F_q) and, when
    e > 1, the p-th power map on coefficients, of order e*q*(q - 1).

    The orbits are walked at the roots theta = g^k, by log lookups alone,
    through three generators: theta -> theta - 1, theta -> theta/gamma with
    gamma = g^(N/(q - 1)) generating F_q^*, and, when e > 1,
    theta -> theta^p.  The first two generate every theta -> (theta - c)/alpha,
    since the scalings conjugate theta -> theta - 1 into theta -> theta - gamma^j.
    An image root maps back to its modulus by the least member of its orbit
    k -> q*k mod N, as LogTable.irreducibles lists it; the root 0 of T
    (d = 1) is k = None.  An orbit is walked only when the enumeration first
    reaches one of its members below count.
    """
    ctx, order, d = table.ctx, table.order, table.d
    p, e, q = ctx.p, ctx.e, ctx.q
    minus_one = table.const_logs[p - 1]
    step = order // (q - 1)
    conjugates = [q**j % order for j in range(d)]
    index = {k: i for i, (_, k) in enumerate(moduli)}
    group = e * q * (q - 1)
    first = [None] * count
    for i in range(count):
        if first[i] is not None:
            continue
        orbit, todo = {i}, [moduli[i][1]]
        while todo:
            k = todo.pop()
            images = [table._add_logs(k, minus_one)]
            if k is not None:
                images.append((k - step) % order)
                if e > 1:
                    images.append(k * p % order)
            for image in images:
                root = None if image is None else min(image * c % order for c in conjugates)
                if root not in index:
                    raise InternalError(
                        f"root log {image} is no root of a listed modulus of degree {d}")
                j = index[root]
                if j not in orbit:
                    orbit.add(j)
                    todo.append(moduli[j][1])
        if group % len(orbit):
            raise InternalError(
                f"an orbit of {len(orbit)} moduli does not divide the group order {group}")
        for j in orbit:
            if j < count:
                first[j] = i
    return first


def stream_degree(ctx: FieldCtx, d: int, mode: str = MODE_FULL,
                  limit: int | None = None, workers: int = 1,
                  budget: int | None = None) -> Iterator[ScanRecord]:
    """One record per monic irreducible modulus of degree d, in enumeration
    order, each yielded as soon as its orbit representative is classified;
    `limit` truncates the modulus list, `workers` sizes the pool and
    `budget` is the residue-mode cost ceiling of each degree stream, checked
    once by residue_field before the shared LogTable is built.  One modulus
    per affine-Frobenius orbit (_orbit_firsts) is classified, and its record
    is copied to the other members with their own m and elapsed_ms 0.

    Every set-up step (the arguments, the q^d limit, the budget, the field,
    the orbits and the start of the pool) runs in this call, so a failure
    there raises before the first record exists.  Closing the generator
    drops the pool's tasks that have not started."""
    rows = _stream(ctx, d, mode, limit, workers, budget)
    next(rows)  # runs the set-up, up to the bare yield
    return rows


def scan_degree(ctx: FieldCtx, d: int, mode: str = MODE_FULL,
                limit: int | None = None, workers: int = 1,
                budget: int | None = None) -> list[ScanRecord]:
    """The records of stream_degree, as one list."""
    return list(stream_degree(ctx, d, mode, limit, workers, budget))


def _stream(ctx, d, mode, limit, workers, budget):
    if mode not in (MODE_FULL, MODE_WITNESS):
        raise DomainError(f"unknown scan mode {mode!r}")
    if limit is not None and limit < 0:
        raise DomainError(f"limit must be >= 0, got {limit}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if limit == 0:
        least_primitive(ctx, d)  # an oversized (q, d) fails even with no modulus
        yield
        return
    table, roots = residue_field(ctx, d, budget)
    moduli = list(roots.items())
    count = len(moduli[:limit])
    first = _orbit_firsts(table, moduli, count)
    key = (ctx.p, ctx.e, ctx.field_modulus, ctx.limit, d)
    tasks = [(key, *moduli[i], mode) for i in range(count) if first[i] == i]
    with _classified(table, tasks, workers) as done:
        yield
        # row i needs only the record of first[i] <= i, so each row goes out
        # as soon as the enumeration reaches it
        records = {}
        for i in range(count):
            if first[i] == i:
                records[i] = next(done)
                yield records[i]
            else:
                yield records[first[i]]._replace(
                    elapsed_ms=0, m=format_poly(FqPoly(ctx, moduli[i][0], check=False)))


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


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


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
            write = lambda r: writer.writerow([_csv_cell(v) for v in r])
        else:
            import json  # here: a csv run never loads it

            write = lambda r: out.write(
                json.dumps(r.as_ordered_dict(), separators=(",", ":")) + "\n")
        for r in records:
            write(r)
            out.flush()

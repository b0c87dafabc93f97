"""Reference-normalised timing.

The CPU speed of a small shared machine drifts by up to 2x within seconds,
so raw seconds of one long call do not repeat.  A fixed pure-Python
reference kernel is therefore run at a steady period *inside the measuring
thread* (from a SIGALRM handler), and every measured interval is rescaled by
how fast the kernel ran while the interval lasted:

    normalised = work seconds x mean over kernel samples (NOMINAL_KERNEL_S / sample)

where work seconds exclude the time spent in the kernel itself.  A
normalised second is a second of a machine on which the kernel takes exactly
NOMINAL_KERNEL_S.  Each measured call is bracketed by one explicit sample on
either side, so even a call shorter than the period gets a factor from
samples taken next to it.
"""

from __future__ import annotations

import gc
import signal
import time

# The kernel is a frozen copy of the shape of the program's hot loop:
# square-and-multiply in F_7[T]/(m), deg m = 3, through field-op lambdas,
# with the schoolbook product and the table reduction of Modulus._mulmod.
KERNEL_REPS = 110
NOMINAL_KERNEL_S = 0.010
PERIOD_S = 0.15
WARMUP_RUNS = 5

_P = 7
_mul = lambda a, b: (a * b) % _P  # noqa: E731
_add = lambda a, b: (a + b) % _P  # noqa: E731
_TPOW = ((6, 5, 0), (0, 6, 5))   # T^3 and T^4 mod T^3 + 2T + 1


def _mulmod(a, b, d=3):
    raw = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    raw[i + j] = _add(raw[i + j], _mul(x, y))
    if len(raw) <= d:
        return raw
    out = raw[:d]
    for k in range(d, len(raw)):
        c = raw[k]
        if c:
            red = _TPOW[k - d]
            for i in range(d):
                out[i] = _add(out[i], _mul(c, red[i]))
    return out


def reference_kernel() -> int:
    """A fixed amount of Python work: KERNEL_REPS powers b^n mod m,
    n = 200..309; returns a checksum."""
    acc = 0
    for r in range(KERNEL_REPS):
        base, result, n = [r % _P, 1, 3], [1], 200 + r
        while n:
            if n & 1:
                result = _mulmod(result, base)
            n >>= 1
            if n:
                base = _mulmod(base, base)
        acc += sum(result)
    return acc


class Mark:
    """A point on the work clock, with the number of samples taken so far."""

    __slots__ = ("work", "n_samples")

    def __init__(self, work: float, n_samples: int):
        self.work = work
        self.n_samples = n_samples


class RefClock:
    """Samples the reference kernel every PERIOD_S while active (a context
    manager) and converts work-clock intervals into normalised seconds.

    The work clock is perf_counter() minus the time spent in the kernel, so
    spans timed with `now()` exclude the sampling overhead.
    """

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in order
        self.kernel_total = 0.0
        self._busy = False  # a sample is running; the alarm skips its turn
        self._old_handler = None
        # the first runs in a fresh interpreter are slower (the interpreter
        # specialises bytecode as it goes); keep them out of the samples
        for _ in range(WARMUP_RUNS):
            reference_kernel()

    def sample(self) -> None:
        if self._busy:  # an alarm during a sample: never nest kernels
            return
        self._busy = True
        gc_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            reference_kernel()
        finally:
            dt = time.perf_counter() - t0
            if gc_on:
                gc.enable()
            self._busy = False
        self.samples.append(dt)
        self.kernel_total += dt

    def now(self) -> float:
        return time.perf_counter() - self.kernel_total

    def mark(self) -> Mark:
        return Mark(self.now(), len(self.samples))

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def factor(self, a: Mark, b: Mark) -> float:
        """Mean speed factor of the samples taken in [a, b], widened by the
        sample just before a and the one just after b when they exist."""
        lo = max(a.n_samples - 1, 0)
        hi = min(b.n_samples + 1, len(self.samples))
        window = self.samples[lo:hi] or self.samples
        return sum(NOMINAL_KERNEL_S / k for k in window) / len(window)

    def between(self, a: Mark, b: Mark) -> tuple[float, float]:
        """(raw work seconds, normalised seconds) from a to b."""
        raw = b.work - a.work
        return raw, raw * self.factor(a, b)

    def measure(self, fn, *args):
        """Run fn(*args) between two explicit samples.

        Returns (result, start mark, end mark); the end mark's sample count
        excludes the closing sample, which `factor` adds back."""
        self.sample()
        a = self.mark()
        result = fn(*args)
        b = self.mark()
        self.sample()
        return result, a, b

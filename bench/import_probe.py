"""Time one cold `import carlitz_hw.cli` in a fresh interpreter.

Usage: python3 import_probe.py SRC_DIR
Prints "raw_seconds normalised_seconds".  The reference kernel is sampled
SAMPLES times before and SAMPLES times after the import, in the same thread;
only refclock (gc, signal, time) is loaded before the timed import.
"""

import sys

import refclock

SAMPLES = 5

sys.path.insert(0, sys.argv[1])
clock = refclock.RefClock()
for _ in range(SAMPLES):
    clock.sample()
a = clock.mark()
import carlitz_hw.cli  # noqa: E402,F401
b = clock.mark()
for _ in range(SAMPLES):
    clock.sample()
raw = b.work - a.work
# the factor over every sample, from the first to the last
print(raw, raw * clock.factor(refclock.Mark(0.0, 0), clock.mark()))

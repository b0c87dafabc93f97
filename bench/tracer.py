"""Spans and counts at the public functions of each carlitz_hw layer.

Wrappers are installed from outside the program: each wrapped function is
replaced under every name that refers to it in every loaded carlitz_hw
module (a function imported with `from .x import f` is a separate binding),
and classes are traced through their __init__.  Every call records a span
(name, start, end, parent span) in flat in-memory arrays; calls and self
time (span time minus the time of its child spans) are totalled per name as
the spans close.  `write` dumps the spans as one JSON file at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # zero-argument callable returning seconds
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._stack: list[list] = []  # [span index, seconds spent in children]
        self._restore: list[tuple] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.span_start.append(t0)
            self.span_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_end[idx] = t1
                dur = t1 - t0
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
        return traced

    def install(self, name, owner, attr):
        """Trace owner.attr under `name`; a class through its __init__."""
        original = getattr(owner, attr)
        if isinstance(original, type):
            init = original.__init__
            self._patch(original, "__init__", init, self.wrap(name, init))
        else:
            self.replace(owner, attr, self.wrap(name, original))

    def replace(self, owner, attr, replacement):
        """Rebind owner.attr to `replacement` wherever a loaded carlitz_hw
        module binds it; `uninstall` undoes it."""
        original = getattr(owner, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "carlitz_hw" or mod_name.startswith("carlitz_hw.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, replacement)

    def _patch(self, target, key, original, replacement):
        setattr(target, key, replacement)
        self._restore.append((target, key, original))

    def uninstall(self):
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def totals(self):
        """{name: (calls, self seconds)} for every traced name."""
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path, meta):
        """One JSON object: span columns (times in work-clock seconds),
        per-name totals and the caller's metadata."""
        doc = {
            "meta": meta,
            "names": self.names,
            "totals": {n: {"calls": c, "self_s": s} for n, (c, s) in self.totals().items()},
            "spans": {
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

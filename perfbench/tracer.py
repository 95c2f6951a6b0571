"""In-memory spans around ptwa's module functions, for the traced benchmark run.

A span is named ``<module>.<function>`` and wraps that module attribute.  The
wrapper is also bound in every other ``ptwa`` module that imported the same
function by name, so calls made inside the library are caught too.  A name
the library no longer defines is reported as absent, not as an error.
Spans are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "ptwa"
#: slack for float round-off when comparing span durations
ROUNDOFF_S = 1e-9


class Tracer:
    """Wraps the named functions in spans while ``enabled`` is true."""

    def __init__(self, names):
        self.names = list(names)
        self.enabled = False
        self.absent: list[str] = []
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace each named function by its traced wrapper in every loaded package module."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name in self.names:
            module_name, func_name = name.rsplit(".", 1)
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)
                        self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end), c in zip(self.spans, child)]

    def violations(self) -> list[str]:
        """Spans whose self time is negative or exceeds their parent span, or that leave it."""
        out = []
        selfs = self.self_times()
        for i, ((name, parent, start, end), own) in enumerate(zip(self.spans, selfs)):
            if own < -ROUNDOFF_S:
                out.append(f"span {i} {name}: negative self time {own:.3e} s")
            if parent >= 0:
                _, _, p_start, p_end = self.spans[parent]
                if own > p_end - p_start + ROUNDOFF_S:
                    out.append(f"span {i} {name}: self time exceeds its parent span")
                if start < p_start or end > p_end:
                    out.append(f"span {i} {name}: lies outside its parent span")
        return out

    def summary(self) -> dict:
        """Per span name: call count, total seconds and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for (name, _, start, end), own in zip(self.spans, self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += own
        return out

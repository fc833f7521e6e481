"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``qoverlap`` modules (and
``np.linalg.lstsq``) from outside the package: every call becomes one span
with a name, start, end and parent span, kept in memory and written out when
the run ends.  A span's self time is its duration minus the time its child
spans cover; calls nest strictly because the benchmark runs one thread.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def lstsq_flops(a, b, *args, **kwargs) -> float:
    """Computed flop count of one least-squares solve, from the shapes alone.

    Uses the Householder-QR count ``2 n^2 (m - n/3)`` for an ``m x n`` system
    with ``m >= n`` (Golub and Van Loan, algorithm 5.3.2).  It is a model of
    the work, not a hardware count: LAPACK's SVD-based solver does more.
    """
    m, n = a.shape
    m, n = max(m, n), min(m, n)
    return 2.0 * n * n * (m - n / 3.0)


class Tracer:
    def __init__(self) -> None:
        # one span: [name, start, end, parent index, attribute, nested in same name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attribute=None):
        """``fn`` recording one span per call; ``attribute(*args)`` tags the span."""
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = attribute(*args, **kwargs) if attribute is not None else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tag, open_names[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            open_names[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                open_names[name] -= 1

        return traced

    def patch(self, owner, attr: str, name: str, attribute=None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by its traced form."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, attribute))

    def patch_everywhere(self, fn, name: str, attribute=None) -> None:
        """Trace ``fn`` under every name a ``qoverlap`` module binds it to."""
        traced = self.wrap(name, fn, attribute)
        for modname, module in list(sys.modules.items()):
            if modname != "qoverlap" and not modname.startswith("qoverlap."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, traced)

    def absorb(self, spans: list[list]) -> None:
        """Append the spans another process recorded (its parents re-indexed)."""
        offset = len(self.spans)
        for name, start, end, parent, tag, nested in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, tag, nested])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self) -> tuple[Counter, dict, dict]:
        """Per span name: calls, total seconds and self seconds.

        Total seconds skip spans nested in a span of the same name, so no
        interval is counted twice.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - covered[i]
            if not nested:
                total[name] += end - start
        return calls, total, own

    def seconds_by_tag(self, name: str) -> dict:
        """Seconds spent in spans of ``name``, per tag."""
        out: dict = defaultdict(float)
        for span_name, start, end, _, tag, _ in self.spans:
            if span_name == name:
                out[tag] += end - start
        return out

    def tag_sum(self, name: str) -> float:
        """Sum of the numeric tags of the spans of ``name``."""
        return float(sum(tag for span_name, _, _, _, tag, _ in self.spans if span_name == name))

    def write(self, path, header: dict) -> None:
        """Write the header, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, tag, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]) + "\n")

"""Bindings patcher and in-memory span recorder for the traced benchmark run.

Layers are timed from outside the program: a wrapper replaces a public
function at the binding its caller looks up (``s2moe.moe.route``, not
``s2moe.routing.route``, because modules import names directly). Every
replaced binding is restored by ``Bindings.restore``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter


class Bindings:
    """Replaces attributes on modules or classes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original)``."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> bool:
        """Put every original back; True when each binding reads as before."""
        saved, self._saved = self._saved, []
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        return all((owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name))
                   is original for owner, name, original in saved)


class SpanRecorder:
    """Spans (name, start, end, parent) and named counts, kept in memory.

    ``parent`` is the index of the enclosing span, or -1 at top level. Calls
    are synchronous, so a span's children nest strictly inside it and its
    self time is its duration minus theirs.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span '{self.spans[idx][0]}' closed out of order")

    def span(self, name: str, after=None):
        """Wrapper factory for ``Bindings.wrap``: one span per call.

        ``after(recorder, args)``, if given, runs inside the span once the
        call returns, to record counts at the same boundary.
        """
        def make(original):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = original(*args, **kwargs)
                    if after is not None:
                        after(self, args)
                    return result
                finally:
                    self.close(idx)
            return wrapper
        return make

    def add_enclosing(self, name: str, intervals: list[tuple[float, float]]) -> None:
        """Add spans the program has no call for (one per training step).

        Top-level spans that end inside an interval become its children.
        """
        first = len(self.spans)
        for start, end in intervals:
            self.spans.append([name, start, end, -1])
        for span in self.spans[:first]:
            if span[3] != -1:
                continue
            for j, (start, end) in enumerate(intervals):
                if start < span[2] <= end:
                    span[3] = first + j
                    break

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds, and
        the call count of each child name."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": defaultdict(int)})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
            if parent >= 0:
                out[self.spans[parent][0]]["children"][name] += 1
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

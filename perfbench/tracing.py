"""In-memory spans around the benchmark's calls into the program.

A span has a name ``<module>.<call>``, a start and an end on the
``time.perf_counter`` clock, the index of its parent span and the id of the
scene it belongs to.  Spans stay in memory and are written out once, when the
run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, scene]
        self.counts: dict[str, float] = defaultdict(float)
        self.scene = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.scene])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, value):
        self.counts[name] += value

    def totals(self):
        """(total seconds per span name, self seconds per module).

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_time[name.split(".")[0]] += end - start - covered
        return total, self_time

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "scene": sc}
            for n, s, e, p, sc in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)
            fh.write("\n")

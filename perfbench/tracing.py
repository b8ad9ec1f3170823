"""In-memory spans around calls into the program's layers.

A span is (id, name, start, end, parent, run id). Spans stay in memory
until ``write`` dumps them once, at the end of a traced run. Self time of
a span is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, name, clock(), None, parent]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record[3] = clock()

    def iterate(self, name: str, iterable):
        """Yield from ``iterable``, one span around each ``next()`` call."""
        it = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children = defaultdict(list)
        for span_id, _, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def count_within(self, name: str) -> int:
        """Spans opened inside the first span called ``name``, itself included."""
        outer = next(s for s in self.spans if s[1] == name)
        return sum(1 for s in self.spans if outer[2] <= s[2] and s[3] <= outer[3])

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "run": self.run_id}
                    )
                )
                fh.write("\n")

"""In-memory spans for traced benchmark runs.

A span records one call the benchmark makes into the library: its name,
its start and end in ``time.perf_counter`` seconds, and the root span it
ran under. Each timed image (and, during set-up, each generated scene)
opens one root span. Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List


class NullTracer:
    """Untraced runs: calls go straight through, nothing is recorded."""

    def root(self, name: str):
        return nullcontext()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Records one child span per library call under the open root span."""

    def __init__(self) -> None:
        # Each span is [id, parent id (-1 for a root), name, start, end].
        self.spans: List[list] = []
        self._root = -1

    @contextmanager
    def root(self, name: str) -> Iterator[int]:
        span = [len(self.spans), -1, name, time.perf_counter(), None]
        self.spans.append(span)
        self._root = span[0]
        try:
            yield span[0]
        finally:
            span[4] = time.perf_counter()
            self._root = -1

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                [len(self.spans), self._root, name, start, time.perf_counter()]
            )

    def self_times(self, root_name: str) -> List[Dict[str, float]]:
        """Per root span called ``root_name``: self seconds by span name.

        A span's self time is its duration minus the part covered by its
        children. Child spans here never overlap, so per root the entries
        sum exactly to the root's duration; the root's own self time is
        stored under ``root_name``.
        """
        table: Dict[int, Dict[str, float]] = {}
        for sid, parent, name, start, end in self.spans:
            if parent == -1 and name == root_name:
                table[sid] = {root_name: end - start}
        for sid, parent, name, start, end in self.spans:
            if parent in table:
                row = table[parent]
                row[name] = row.get(name, 0.0) + (end - start)
                row[root_name] -= end - start
        return list(table.values())

    def root_durations(self, root_name: str) -> List[float]:
        return [
            end - start
            for _, parent, name, start, end in self.spans
            if parent == -1 and name == root_name
        ]

    def as_records(self) -> List[dict]:
        keys = ("id", "parent", "name", "start", "end")
        return [dict(zip(keys, span)) for span in self.spans]

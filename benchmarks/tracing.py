"""In-memory spans recorded by the benchmark around the public calls it makes.

A span is (name, start, end, parent, item): `parent` is the index of the
enclosing span in `Tracer.spans` (or -1) and `item` is the id of the item
being run (None during set-up).  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Tracing off: calls go straight through, nothing is recorded."""

    enabled = False
    item = None

    def span(self, name):
        return nullcontext()

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Tracing on: every `call` and `span` is recorded with its parent."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.item]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def per_item_seconds(self) -> dict[str, list[float]]:
        """For each span name, the total time per traced item (0 if absent)."""
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, item in self.spans:
            if item is not None:
                totals[item][name] += end - start
        names = {name for per in totals.values() for name in per}
        return {name: [per.get(name, 0.0) for per in totals.values()] for name in names}

    def setup_median(self, name: str) -> float:
        """Median duration of the set-up spans called `name` (0 if none)."""
        times = [end - start for n, start, end, _, item in self.spans if item is None and n == name]
        return statistics.median(times) if times else 0.0

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")

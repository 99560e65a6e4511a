"""Call accounting and in-memory spans for the benchmark.

Every call into a public kcomp function goes through `Tracer.call` with a
name `<layer>.<stage>`, where the layer is the kcomp module that defines the
function.  An untraced tracer only counts calls and failures; a traced one
also keeps one span per call (name, start, end, parent) and per open
`section` (a pass or a phase), and writes them out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, record: bool):
        self.record = record
        self.attempted = 0
        self.errors = Counter()        # layer -> calls that raised
        self.mismatches = Counter()    # layer -> answers that failed a check
        self.spans = []                # [id, parent, name, start, end]
        self._open = [None]

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        span = None
        if self.record:
            span = [len(self.spans), self._open[-1], name, perf_counter(), None]
            self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._count_error(name, exc)
            raise
        finally:
            if span is not None:
                span[4] = perf_counter()

    def _count_error(self, name: str, exc: Exception) -> None:
        # the mark tells workloads.guard a kcomp failure, already counted,
        # from a defect of the benchmark itself
        if not getattr(exc, 'counted', False):
            self.errors[name.split('.')[0]] += 1
            exc.counted = True

    def check(self, name: str, ok: bool) -> None:
        """Count a reference check of the answer of call `name`."""
        self.attempted += 1
        if not ok:
            self.mismatches[name.split('.')[0]] += 1

    @contextmanager
    def section(self, name: str):
        """Parent span for the calls made inside; a no-op when untraced."""
        if not self.record:
            yield
            return
        span = [len(self.spans), self._open[-1], name, perf_counter(), None]
        self.spans.append(span)
        self._open.append(span[0])
        try:
            yield
        finally:
            self._open.pop()
            span[4] = perf_counter()

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + sum(self.mismatches.values())

    def write(self, path) -> None:
        with open(path, 'w', encoding='utf-8') as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start, "end": end}) + "\n")


def self_times(spans: list) -> Counter:
    """Seconds per span name: each span's duration minus the time its own
    child spans cover, summed over the given spans."""
    children = Counter()
    for sid, parent, name, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    out = Counter()
    for sid, parent, name, start, end in spans:
        out[name] += (end - start) - children[sid]
    return out

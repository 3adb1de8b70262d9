"""In-memory spans for the traced run.

A span has a name, a start, an end, the span that caused it and the trace
(one repetition of a timed operation, or one set-up) it belongs to.  Spans
are kept in memory and written out once, when the run ends.
"""

import contextlib
import json
import statistics
import time


class Span:
    __slots__ = ("span_id", "trace_id", "parent_id", "name", "start", "end", "attrs")

    def __init__(self, span_id, trace_id, parent_id, name, start):
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._trace_id = 0

    @contextlib.contextmanager
    def span(self, name, new_trace=False):
        """Record a span around the body; ``new_trace`` starts a new trace id
        (only for a span without an open parent)."""
        if new_trace:
            if self._open:
                raise RuntimeError(f"span {name!r} cannot start a trace inside another span")
            self._trace_id += 1
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans) + 1, self._trace_id, parent, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_time(self, span):
        """The span's duration minus the part of it its child spans cover."""
        covered = 0.0
        reach = span.start
        children = sorted(
            (s for s in self.spans if s.parent_id == span.span_id), key=lambda s: s.start
        )
        for child in children:
            start, end = max(child.start, reach), min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def per_trace(self, name, value):
        """``value(span)`` summed over the spans called ``name`` in each trace,
        one total per trace that has any."""
        totals = {}
        for s in self.named(name):
            totals[s.trace_id] = totals.get(s.trace_id, 0.0) + value(s)
        return list(totals.values())

    def median_per_trace(self, name, value=lambda s: s.duration):
        """(median over traces of the per-trace total, number of traces)."""
        totals = self.per_trace(name, value)
        if not totals:
            raise LookupError(f"no {name!r} span was recorded")
        return statistics.median(totals), len(totals)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                [
                    {
                        "id": s.span_id,
                        "trace": s.trace_id,
                        "parent": s.parent_id,
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        **s.attrs,
                    }
                    for s in self.spans
                ],
                f,
            )
            f.write("\n")


@contextlib.contextmanager
def patched(module, name, replacement):
    """Replace ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)

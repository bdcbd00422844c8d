"""In-memory spans recorded by the benchmark around its own calls into the
package's modules.

A span has a name, start and end (``time.perf_counter`` seconds), the span
that encloses it, the request it belongs to, and one work count (frames).
Spans stay in memory and are written out when the run ends. A layer's self
time is its span's duration minus the time covered by its child spans.

Untraced runs use ``NullTracer``, whose spans record nothing.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Span:
    __slots__ = ("tracer", "id", "parent", "request", "name", "start", "end", "count")

    def __init__(self, tracer, span_id, parent, request, name):
        self.tracer = tracer
        self.id = span_id
        self.parent = parent
        self.request = request
        self.name = name
        self.start = self.end = 0.0
        self.count = 0

    def __enter__(self):
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer._stack.pop()
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "request": self.request,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "count": self.count,
        }


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name: str, request=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            request = parent.request if request is None else request
        span = Span(self, len(self.spans), None if parent is None else parent.id, request, name)
        self.spans.append(span)
        return span

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list:
        """Self time in seconds of every closed span called ``name``."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - covered[s.id] for s in self.spans if s.name == name and s.end]

    def to_list(self) -> list:
        return [s.to_dict() for s in self.spans]


class _NullSpan:
    __slots__ = ("count",)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    enabled = False

    def span(self, name: str, request=None) -> _NullSpan:
        return _NullSpan()

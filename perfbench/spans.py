"""In-memory spans around the benchmark's calls into each nslattice layer.

A span is (name, start, end, parent, request id).  Spans nest on one thread,
so a span's self time is its duration minus the durations of its direct
children; self time is summed per layer (the text before the first dot of
the span name) for every span, while only the first ``KEEP`` spans are kept
for writing out.
"""

from __future__ import annotations

import json
from time import perf_counter

LAYERS = ("bench", "lattice", "hirzebruch", "blowup", "selfcheck", "cli", "python")
KEEP = 100_000


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start", "child_s")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.parent = stack[-1].id if stack else None
        self.id = tracer.count
        tracer.count += 1
        self.child_s = 0.0
        stack.append(self)
        self.start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        stack = tracer._stack
        stack.pop()
        duration = end - self.start
        tracer.self_s[self.name.split(".", 1)[0]] += duration - self.child_s
        if stack:
            stack[-1].child_s += duration
        if len(tracer.spans) < KEEP:
            tracer.spans.append((self.name, self.start, end, self.parent, tracer.request))
        return False


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.count = 0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self._stack: list[_Span] = []
        self.request = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "request"],
                    "recorded": self.count,
                    "kept": len(self.spans),
                    "spans": self.spans,
                },
                fh,
            )


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NoTracer:
    """The untraced path: the same interface, recording nothing."""

    request = -1
    _null = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._null

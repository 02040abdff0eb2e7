"""Span tracer that times calls into the program from the benchmark's side.

A span is recorded by rebinding a function name in the module that calls
it, so the program carries no tracing code. Spans stay in memory while the
traced phase runs and are summarised once it ends. Each span records its
name, start, end and the span that was open on the same thread when it
began, which gives every layer's self time.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    raised: bool


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    raised: int = 0


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.sizes: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, sizes=None):
        """fn with a span around every call.

        sizes maps a suffix to a function of (args, kwargs) whose value is
        added to the counter "<name>.<suffix>" on each call.
        """

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
                for suffix, size in (sizes or {}).items():
                    self.sizes[f"{name}.{suffix}"] += size(args, kwargs)
            stack.append(index)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = Span(name, start, end, parent, raised)

        return traced

    def patch(self, owner, attr: str, name: str, sizes=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, sizes))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, points):
        """Rebind every (owner, attr, name, sizes) point for the block."""
        try:
            for owner, attr, name, sizes in points:
                self.patch(owner, attr, name, sizes)
            yield self
        finally:
            self.restore()

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, wall seconds, self seconds and raised calls per span name."""
        child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span.parent >= 0:
                child_seconds[span.parent] += span.end - span.start
        out: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span, children in zip(self.spans, child_seconds):
            if span is None:  # still open on another thread
                continue
            t = out[span.name]
            t.calls += 1
            t.seconds += span.end - span.start
            t.self_seconds += span.end - span.start - children
            t.raised += span.raised
        return out

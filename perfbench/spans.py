"""In-memory spans for the traced run, and self-time arithmetic over them.

A span records name, start, end, parent span and op id. Spans stay in a list
until the run ends and are written out once. A span's self time is its
duration minus the part of its interval that its children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.op = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(name, start, end, parent, self.op)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed by span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for sid, span in enumerate(spans):
        duration = span.end - span.start
        totals[span.name] += duration - _covered(span.start, span.end, children[sid])
    return dict(totals)

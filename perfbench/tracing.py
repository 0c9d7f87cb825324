"""In-memory spans and the self-time arithmetic of the per-layer trace.

A :class:`Tracer` records one span per wrapped call: its name, start,
end and the span that was open when it began (its parent).  Spans stay
in memory until the traced process ends.  The benchmark is a single
thread, so a span's children run one after another inside it.

A span's *self time* is its duration minus the part of it that its
child spans cover.  Summing self time over every span of one name gives
that layer's busy time without counting nested layers twice, and a
same-name recursive call counts once (the outer span's self time
excludes the inner span).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Tracer", "covered", "self_times", "descendants_of"]

#: Parent index of a span opened with no other span open.
NO_PARENT = -1


class Tracer:
    """Records (name, start, end, parent) for every traced call."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else NO_PARENT)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._open.pop()

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        The span is closed however the call exits, so a raising call
        still has an end and its parent sees it as a child.
        """
        index = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    @contextmanager
    def span(self, name: str):
        """A span around a block rather than a call."""
        index = self._begin(name)
        try:
            yield index
        finally:
            self._end(index)

    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every span as ``(name, start, end, parent index)``."""
        return list(zip(self.names, self.starts, self.ends, self.parents))


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _clip(start: float, end: float, window):
    if window is None:
        return start, end
    lo, hi = window
    return max(start, lo), min(end, hi)


def self_times(spans, window=None) -> list[float]:
    """Self time of every span, optionally clipped to ``window``.

    ``spans`` is a list of ``(name, start, end, parent)`` tuples whose
    parents are indices into the same list.  With ``window = (lo, hi)``
    only the part of each span inside the window counts, both for the
    span and for its children.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    clipped = []
    for index, (_name, start, end, parent) in enumerate(spans):
        lo, hi = _clip(start, end, window)
        interval = (lo, hi) if hi > lo else None
        clipped.append(interval)
        if parent != NO_PARENT and interval is not None:
            children[parent].append(interval)
    out = []
    for index, interval in enumerate(clipped):
        if interval is None:
            out.append(0.0)
            continue
        out.append(interval[1] - interval[0] - covered(children[index]))
    return out


def descendants_of(spans, roots: set[int]) -> set[int]:
    """Indices of ``roots`` and every span nested under one of them."""
    inside = set()
    for index, (_name, _start, _end, parent) in enumerate(spans):
        # Parents always precede their children in recording order.
        if index in roots or (parent != NO_PARENT and parent in inside):
            inside.add(index)
    return inside

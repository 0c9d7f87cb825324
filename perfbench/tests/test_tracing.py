"""Self-time arithmetic of the benchmark's span tracer.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import NO_PARENT, Tracer, covered, descendants_of, self_times  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock) -> Tracer:
    return Tracer(clock=clock)


def by_name(tracer: Tracer, window=None) -> dict[str, float]:
    out: dict[str, float] = {}
    spans = tracer.spans()
    for (name, *_rest), own in zip(spans, self_times(spans, window)):
        out[name] = out.get(name, 0.0) + own
    return out


def test_nested_span_is_subtracted_from_its_parent(tracer, clock):
    with tracer.span("outer"):
        clock.advance(2)
        with tracer.span("inner"):
            clock.advance(3)
        clock.advance(5)
    assert by_name(tracer) == {"outer": 7.0, "inner": 3.0}
    assert tracer.parents == [NO_PARENT, 0]


def test_siblings_each_subtract_once(tracer, clock):
    with tracer.span("parent"):
        clock.advance(1)
        with tracer.span("a"):
            clock.advance(2)
        clock.advance(1)
        with tracer.span("b"):
            clock.advance(4)
        clock.advance(2)
    assert by_name(tracer) == {"parent": 4.0, "a": 2.0, "b": 4.0}
    assert tracer.parents == [NO_PARENT, 0, 0]


def test_same_name_recursion_counts_wall_time_once(tracer, clock):
    def recurse(depth: int) -> None:
        clock.advance(1)
        if depth:
            tracer.call("f", recurse, (depth - 1,), {})
        clock.advance(1)

    tracer.call("f", recurse, (2,), {})
    assert self_times(tracer.spans()) == [2.0, 2.0, 2.0]
    assert by_name(tracer) == {"f": 6.0}
    assert tracer.parents == [NO_PARENT, 0, 1]


def test_exception_exit_closes_the_span_and_restores_the_parent(tracer, clock):
    def boom() -> None:
        clock.advance(3)
        raise ValueError("boom")

    with tracer.span("outer"):
        clock.advance(1)
        with pytest.raises(ValueError):
            tracer.call("failing", boom, (), {})
        clock.advance(1)
        tracer.call("after", clock.advance, (2,), {})
    names = dict(zip(tracer.names, zip(tracer.starts, tracer.ends, tracer.parents)))
    assert names["failing"] == (1.0, 4.0, 0)
    assert names["after"] == (5.0, 7.0, 0)
    assert by_name(tracer) == {"outer": 2.0, "failing": 3.0, "after": 2.0}


def test_call_returns_the_wrapped_result(tracer):
    assert tracer.call("add", lambda a, b=0: a + b, (2,), {"b": 3}) == 5
    assert len(tracer) == 1


def test_window_clips_spans_and_their_children(tracer, clock):
    with tracer.span("outer"):
        clock.advance(2)
        with tracer.span("inner"):
            clock.advance(3)
        clock.advance(5)
    # Only [4, 10] counts: inner covers [4, 5] of it.
    assert by_name(tracer, window=(4.0, 10.0)) == {"outer": 5.0, "inner": 1.0}
    # A span wholly outside the window contributes nothing.
    assert by_name(tracer, window=(6.0, 10.0)) == {"outer": 4.0, "inner": 0.0}


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([(0.0, 10.0), (2.0, 3.0)]) == 10.0


def test_descendants_follow_the_parent_chain(tracer, clock):
    with tracer.span("setup.x"):
        with tracer.span("spec_hash"):
            tracer.call("leaf", clock.advance, (1,), {})
    with tracer.span("search"):
        tracer.call("spec_hash", clock.advance, (1,), {})
    spans = tracer.spans()
    assert descendants_of(spans, {0}) == {0, 1, 2}
    assert descendants_of(spans, {3}) == {3, 4}

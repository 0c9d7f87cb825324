"""Reference-second arithmetic of the benchmark's host-speed calibration.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from hostspeed import REFERENCE_KERNEL_S, HostSpeed, reference_seconds  # noqa: E402

REF = REFERENCE_KERNEL_S


def test_kernel_at_reference_speed_leaves_busy_time_unscaled():
    samples = [(1.0, REF), (2.0, REF), (3.0, REF)]
    assert reference_seconds(samples, 0.0, 4.0) == pytest.approx(4.0 - 3 * REF)


def test_slow_host_shrinks_reference_time():
    # The kernel ran twice as slow as its reference: the host was at half
    # speed, so the interval's busy time is worth half as many seconds.
    samples = [(1.0, 2 * REF), (2.0, 2 * REF)]
    assert reference_seconds(samples, 0.0, 3.0) == pytest.approx((3.0 - 4 * REF) / 2)


def test_only_runs_inside_the_interval_count():
    samples = [(0.5, 4 * REF), (1.5, REF), (2.5, REF), (3.5, 4 * REF)]
    assert reference_seconds(samples, 1.0, 3.0) == pytest.approx(2.0 - 2 * REF)


def test_interval_without_a_run_uses_every_sample():
    samples = [(0.5, REF), (5.0, 3 * REF)]
    assert reference_seconds(samples, 1.0, 2.0) == pytest.approx(1.0 / 2)


def test_no_sample_at_all_is_an_error():
    with pytest.raises(ValueError):
        reference_seconds([], 0.0, 1.0)


def test_timer_samples_the_kernel_while_the_caller_runs():
    speed = HostSpeed(interval=0.01)
    speed.start()
    try:
        begun = time.monotonic()
        while time.monotonic() - begun < 0.2:
            sum(range(1000))
    finally:
        speed.stop()
    ended = time.monotonic()
    assert len(speed.samples) >= 5
    assert 0.0 < speed.kernel_seconds(begun, ended) < ended - begun
    assert speed.reference_seconds(begun, ended) > 0.0

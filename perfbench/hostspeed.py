"""Host-speed calibration: wall time rescaled to a reference host speed.

The benchmark runs on shared virtual machines whose cores slow down by
up to ~2x when other tenants load the host, in stretches from tens of
milliseconds to minutes.  A run that falls into a slow stretch would
read as a regression of the program.

:class:`HostSpeed` measures the host's speed while the program runs: a
``SIGALRM`` handler times one run of a fixed NumPy kernel every
``interval`` seconds.  Python runs the handler on the measured thread
between bytecodes, so it needs no extra thread or process and it sees
the core the program is on.  :meth:`HostSpeed.reference_seconds` turns
a wall-clock interval into *reference seconds*: the interval minus the
kernel runs inside it, scaled by :data:`REFERENCE_KERNEL_S` over the
kernel's mean measured duration in the interval.  When the kernel runs
at its reference duration, reference seconds equal wall seconds.

The kernel touches no library code and no random state, so it changes
neither the program's work nor its outputs.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["HostSpeed", "REFERENCE_KERNEL_S", "reference_seconds"]

#: The kernel's typical duration on an idle 2-vCPU x86-64 VM.
REFERENCE_KERNEL_S = 0.6e-3
#: Seconds between two kernel runs.
INTERVAL_S = 0.05

_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16) / 4.0


def _kernel() -> None:
    """Small matrix products and ufuncs: interpreter and NumPy dispatch."""
    x = _MATRIX
    for _ in range(100):
        x = np.tanh(x @ _MATRIX) + 0.5


def reference_seconds(samples, start: float, end: float) -> float:
    """Reference seconds of the wall interval ``[start, end)``.

    ``samples`` are ``(begun, seconds)`` kernel runs.  The runs that
    began inside the interval are taken out of it and give the host's
    speed; an interval too short to hold one uses every sample.
    """
    inside = [seconds for begun, seconds in samples if start <= begun < end]
    speed = inside or [seconds for _begun, seconds in samples]
    if not speed:
        raise ValueError("no kernel run was timed")
    busy = end - start - sum(inside)
    return busy * REFERENCE_KERNEL_S / statistics.fmean(speed)


class HostSpeed:
    """Times :func:`_kernel` every ``interval`` seconds of wall time."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (begun, seconds)

    def _tick(self, signum, frame) -> None:
        begun = time.monotonic()
        _kernel()
        self.samples.append((begun, time.monotonic() - begun))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        # Restart system calls the timer interrupts (sqlite, file I/O).
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def reference_seconds(self, start: float, end: float) -> float:
        return reference_seconds(self.samples, start, end)

    def kernel_seconds(self, start: float, end: float) -> float:
        """Wall time the kernel took inside ``[start, end)``."""
        return sum(seconds for begun, seconds in self.samples if start <= begun < end)

"""Machine-speed sampling, so host times compare across noisy machine states.

On a shared machine the speed a process gets changes by tens of percent
from one minute to the next, far more than the bounds a benchmark can
afford.  :class:`SpeedSampler` runs a fixed reference kernel (plain Python
plus small NumPy operations, the simulator's own mix) every
:data:`PERIOD_S` seconds from a ``SIGALRM`` handler, in the benchmark's
only thread.  Host times measured while it samples are then reported at
the reference speed: multiplied by ``REFERENCE_PROBE_S / median probe
time``.  One factor per run: a factor per execution over-corrects short
phases that end an execution.  Times are read from
:meth:`SpeedSampler.work_clock`, which leaves out the probes' own time.

The kernel lives in the benchmark, so a change to the program under test
moves the measured times and never the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

import numpy as np

#: seconds between probes
PERIOD_S = 0.1
#: probe time that maps to a scale of 1.0: about the kernel's median time on
#: a 2-vCPU x86-64 (AVX-512) VM with Python 3.11 and NumPy 2.4.  Any fixed
#: value gives comparable runs; this one keeps reported times near real ones.
REFERENCE_PROBE_S = 1.5e-3

_MATRIX = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def probe_kernel() -> float:
    """Fixed reference work: dict/attribute traffic plus small NumPy ops."""
    counts = {}
    for i in range(5000):
        counts[i & 15] = counts.get(i & 15, 0) + i
    total = float(sum(counts.values()))
    block = _MATRIX
    for _ in range(100):
        block = np.tanh(block @ _MATRIX)
        total += float(block.sum())
    return total


class SpeedSampler:
    """Periodic probe timings over one run; used as a context manager."""

    def __init__(self) -> None:
        #: duration of every probe, in time order
        self.seconds: List[float] = []
        self._probe_total = 0.0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_kernel()
        seconds = time.perf_counter() - start
        self.seconds.append(seconds)
        self._probe_total += seconds

    def work_clock(self) -> float:
        """``perf_counter`` minus the time spent in probes so far."""
        return time.perf_counter() - self._probe_total

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference-speed factor for the work done while sampling."""
        if not self.seconds:
            raise RuntimeError("no speed probe has run")
        return REFERENCE_PROBE_S / statistics.median(self.seconds)

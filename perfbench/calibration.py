"""A fixed piece of reference work that measures how fast the host runs now.

On a shared virtual machine the same iteration can take anywhere from 1x to
2x its fastest time, in slow phases that last seconds to minutes and slow
CPU time as much as wall time.  Timing this reference work right next to
each timed iteration measures the host's speed at that moment; the ratio of
the two cancels most of the slowdown (README.md, "Calibrated times").

The work is an interpreter loop and numpy FFTs of the sizes the workloads
use.  It depends on nothing in fracsys, so a change to the program cannot
change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds the reference work takes at the host speed all calibrated times
# are scaled to (its median on the Xeon host where the benchmark was written).
REFERENCE_S = 0.045

_X1 = np.cos(0.01 * np.arange(2048))
_X2 = np.cos(0.01 * np.add.outer(np.arange(256), np.arange(256)))


def _work() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    for _ in range(200):
        np.fft.irfft(np.fft.rfft(_X1))
    for _ in range(10):
        np.fft.irfft2(np.fft.rfft2(_X2))
    return total


def measure() -> tuple:
    """Wall and CPU seconds of one pass of the reference work.

    The CPU time is this thread's only: threads the program left running,
    such as BLAS workers that spin after a call, must not count as host
    speed, or dividing by it would hide their cost from ``cpu_s``.
    """
    start_cpu = time.thread_time()
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start, time.thread_time() - start_cpu


def around(passes: list) -> list:
    """Given the passes made before each of n samples and one after the
    last, the mean of the two passes around each sample (n values)."""
    return [(a + b) / 2 for a, b in zip(passes, passes[1:])]


def calibrated(samples: list, references: list) -> float:
    """Median of sample / reference, in seconds at the reference host speed."""
    return statistics.median(s / r for s, r in zip(samples, references)) * REFERENCE_S

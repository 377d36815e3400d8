"""A fixed calibration kernel that tracks how fast the host runs right now.

On a small shared host the same work runs up to ~45% slower for seconds to
minutes at a time, whenever other tenants load it.  Timing this kernel next
to each measured call and dividing the call's time by the kernel's slowness
removes most of that drift: every timing the benchmark reports is the time
at the speed the kernel has when it takes REFERENCE_SECONDS.  The raw times
go to the run's record as well.

The kernel mixes interpreted Python and a numpy contraction, the two kinds
of work casdis does.  It must never change, or numbers stop being comparable
across versions of the program.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on an unloaded 2-vCPU Intel Xeon (2.1 GHz) with numpy 2.4.
REFERENCE_SECONDS = 0.025

_LEFT = np.random.default_rng(0).random((64, 4, 64))
_RIGHT = np.random.default_rng(1).random((2000, 64))


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    for _ in range(2):
        np.einsum("...d,rd->...r", _LEFT, _RIGHT)
    return time.perf_counter() - start


class HostSpeed:
    """Runs the kernel between measured calls.

    ``slowness()`` after a call is the mean kernel time on either side of it
    over REFERENCE_SECONDS: 1.0 on the reference host, 1.3 when everything
    runs 30% slower.
    """

    def __init__(self):
        self._last = kernel_seconds()

    def slowness(self) -> float:
        now = kernel_seconds()
        ratio = (self._last + now) / 2 / REFERENCE_SECONDS
        self._last = now
        return ratio


def timed(speed: HostSpeed, min_seconds: float, call):
    """Call ``call`` until ``min_seconds`` have passed (at least once), then
    return (raw seconds, seconds at reference speed, result) for each call."""
    out = []
    start = time.perf_counter()
    while not out or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        result = call()
        out.append((time.perf_counter() - t0, result))
    slowness = speed.slowness()
    return [(raw, raw / slowness, result) for raw, result in out]

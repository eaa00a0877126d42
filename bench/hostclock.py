"""Wall time adjusted to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 2x from one tenth of a second to the next, and whose share of slow time
changes from minute to minute. Wall time alone then measures the host as
much as the program: consecutive 35-second runs of the same pass read 30%
apart. So the benchmark times a fixed calibration chunk (pure-Python and
small numpy work, like the program's) between the timed steps, at most once
per ``MIN_GAP_S`` seconds, and converts every timed interval into reference
seconds: the integral over the interval of the host speed, where the speed
at a moment is ``REFERENCE_S / duration`` of the calibration chunk nearest
to it. On a host where the chunk takes ``REFERENCE_S`` a reference second
is a wall-clock second.

Calibration time is kept off the clock: ``now()`` is wall time minus the
time spent in calibration chunks, so timed intervals hold program work
only. The raw wall time stays available and is printed beside.
"""

from __future__ import annotations

import functools
from array import array
from bisect import bisect_left
from time import perf_counter

import numpy as np

# Seconds the chunk takes on the reference host: about its median on a
# 2-vCPU Xeon VM (2.0 GHz, Python 3.11, numpy 2.4, one BLAS thread).
REFERENCE_S = 0.003
MIN_GAP_S = 0.05  # at most one calibration per this many seconds

_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16)


@functools.cache
def _random_cycle(n: int) -> array:
    """next[i] for one cycle through all n slots in a random order.

    One flat buffer, so its layout does not depend on what the program
    allocated before; built on first use, so set-up probes do not pay for it.
    """
    order = np.random.default_rng(0).permutation(n)
    nxt = np.empty(n, dtype=np.int64)
    nxt[order] = np.roll(order, -1)
    return array("q", nxt.tobytes())


def calibration_chunk() -> int:
    """Fixed work: a pointer chase, small dicts and strings, small matrix products."""
    # 4 MB, so the chase misses the private caches as the program's dict-
    # and string-heavy work does.
    nxt = _random_cycle(500_000)
    i = 0
    for _ in range(4000):
        i = nxt[i]
    rows = []
    for k in range(800):
        row = {"t": k, "s": "ab" + str(k), "l": [k, k + 1]}
        rows.append(",".join([row["s"], str(row["l"][1])]))
    a = _MATRIX
    for _ in range(100):
        a = np.tanh(a @ _MATRIX * 0.1 + 0.1)
    return i + len(rows) + int(a.sum() > 0)


class HostClock:
    """A clock that excludes calibration time, and the host speed along it."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.paused = 0.0  # wall seconds spent in calibration chunks
        self.times: list[float] = []  # clock time of each calibration
        self.speeds: list[float] = []  # REFERENCE_S / chunk duration
        self._last = float("-inf")
        if enabled:
            calibration_chunk()  # untimed: builds the chunk's data and warms it up

    def now(self) -> float:
        return perf_counter() - self.paused

    def calibrate(self, force: bool = False) -> None:
        """Time one chunk, unless one was timed less than ``MIN_GAP_S`` ago."""
        if not self.enabled:
            return
        at = self.now()
        if not force and at - self._last < MIN_GAP_S:
            return
        started = perf_counter()
        calibration_chunk()
        elapsed = perf_counter() - started
        self.paused += elapsed
        self.times.append(at)
        self.speeds.append(REFERENCE_S / elapsed)
        self._last = at

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the clock interval [start, end].

        The speed is piecewise constant: each calibration holds from the
        midpoint with its predecessor to the midpoint with its successor.
        Without calibrations this is the interval's length.
        """
        times, speeds = self.times, self.speeds
        if not times:
            return end - start
        i = max(0, bisect_left(times, start) - 1)
        total = 0.0
        lo = start
        while lo < end:
            # Calibration i holds until the midpoint with calibration i + 1.
            while i + 1 < len(times) and (times[i] + times[i + 1]) / 2 <= lo:
                i += 1
            hi = end if i + 1 == len(times) else min(end, (times[i] + times[i + 1]) / 2)
            total += (hi - lo) * speeds[i]
            lo = hi
        return total

    def mean_speed(self) -> float:
        """Mean host speed over the calibrations, 1.0 without any."""
        return sum(self.speeds) / len(self.speeds) if self.speeds else 1.0

"""Host speed calibration: a fixed kernel timed around every measured unit.

On a shared host the speed of a vCPU drifts by a third or more for minutes at
a time, as other tenants come and go, so raw times of the same code spread
more between runs than any useful regression bound. The benchmark therefore
times a fixed kernel before and after every unit it measures, and scales the
unit's times by ``CALIB_REF_S / c``, where ``c`` is the median kernel time
around that unit. Every end-to-end time is then in *reference seconds*:
seconds on a host where the kernel takes ``CALIB_REF_S``.

The kernel mixes interpreter-bound arithmetic with numpy gathers and einsums
on small and multi-MB arrays, as the program does. It never calls the
program, so a change to the program cannot move it; it must not change
either, or the scale changes.
"""

from __future__ import annotations

import statistics
import time

# About the kernel's median time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
CALIB_REF_S = 0.025
SAMPLES = 5  # kernel runs at each unit boundary

_ARRAYS = None


def _kernel() -> float:
    global _ARRAYS
    import numpy as np

    if _ARRAYS is None:
        rng = np.random.default_rng(0)
        _ARRAYS = [
            (rng.integers(0, 64, (rows, 21)), rng.random((rows, 21, 6))) for rows in (128, 2048)
        ] + [rng.random((64, 6, 6))]
    (small_regions, small), (big_regions, big), mats = _ARRAYS
    t0 = time.perf_counter()
    acc = 0
    for j in range(60000):
        acc += j * j
    for _ in range(20):
        np.einsum("...d,...de,...e->...", small, mats[small_regions], small)
    # A working set of a few MB, as in a long history re-fit or a fine oracle grid.
    np.einsum("...d,...de,...e->...", big, mats[big_regions], big)
    return time.perf_counter() - t0


class HostSpeed:
    """Scales for consecutive timed blocks, from kernel runs at their boundaries."""

    def __init__(self):
        _kernel()  # warm-up: first-call costs are not host speed
        self._last = self._sample()
        self.kernel_times = list(self._last)

    def _sample(self) -> list:
        return [_kernel() for _ in range(SAMPLES)]

    def scale(self) -> float:
        """Reference seconds per second for the block timed since the last call."""
        now = self._sample()
        self.kernel_times += now
        c = statistics.median(self._last + now)
        self._last = now
        return CALIB_REF_S / c

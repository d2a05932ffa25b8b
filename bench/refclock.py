"""Wall time rescaled by the measured speed of a fixed reference kernel.

The CPU speed of a shared host drifts by up to ±20% over tens of seconds, so
raw wall times of identical runs spread too widely to gate a change. The
benchmark runs a fixed kernel (small numpy ops and Python object work, like
the tracker's tape) between the measured calls, and scales each call's wall
time by REFERENCE_TICK_S / (median duration of the kernel runs within
HORIZON_S of the call). A scaled time is the call's time on a host where one
kernel run takes REFERENCE_TICK_S. The kernel never changes with the program,
so a change to proctrack moves scaled times as it moves wall times.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

import numpy as np

# About one kernel run on an uncontended 2-CPU x86-64 host (Python 3.11,
# numpy 2.4, one OpenBLAS thread).
REFERENCE_TICK_S = 0.55e-3
# Kernel runs further than this from a call do not describe its speed.
HORIZON_S = 0.25
# Share of measured time spent running the kernel.
CALIBRATION_SHARE = 0.05

_rng = np.random.default_rng(20210415)
_X = _rng.normal(size=(40, 32))
_W1 = _rng.normal(size=(32, 64)) * 0.1
_W2 = _rng.normal(size=(64, 32)) * 0.1


def reference_kernel() -> np.ndarray:
    """Layer norm, a GELU feed-forward and softmax attention over a 40 x 32
    input, plus small Python objects: the op mix of one tracker pass. The
    `**` power matters: the host's slowdowns hit it as they hit the tracker's
    GELU, which a kernel without it tracks worse."""
    x = _X
    records = []
    for i in range(2):
        h = x - x.mean(axis=-1, keepdims=True)
        h = h / np.sqrt((h * h).mean(axis=-1, keepdims=True) + 1e-5)
        a = h @ _W1
        a = 0.5 * a * (1.0 + np.tanh(0.79788456 * (a + 0.044715 * a**3)))
        s = h @ h.T
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        x = x + (a @ _W2) * 0.1 + ((e / e.sum(axis=-1, keepdims=True)) @ h) * 0.01
        records.append({"step": i, "shape": x.shape, "ids": tuple(range(8))})
    return x


class ReferenceClock:
    def __init__(self):
        self._at: list[float] = []  # start of each kernel run
        self._took: list[float] = []
        self.spent_s = 0.0
        for _ in range(20):  # warm-up, not recorded
            reference_kernel()

    def calibrate(self, last_call_s: float = 0.0) -> None:
        """Run the kernel for about CALIBRATION_SHARE of the last call's
        duration, at least once."""
        clock = time.perf_counter
        t_start = clock()
        budget = CALIBRATION_SHARE * last_call_s
        while True:
            t0 = clock()
            reference_kernel()
            t1 = clock()
            self._at.append(t0)
            self._took.append(t1 - t0)
            if t1 - t_start >= budget:
                break
        self.spent_s += clock() - t_start

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds in [start, end] to reference seconds."""
        lo = bisect_left(self._at, start - HORIZON_S)
        hi = bisect_right(self._at, end + HORIZON_S)
        if lo == hi:
            raise ValueError("no reference kernel run near the measured call")
        return REFERENCE_TICK_S / float(np.median(self._took[lo:hi]))

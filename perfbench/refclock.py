"""Wall time scaled to a reference machine speed.

On a shared virtual machine the same code can run up to twice as
slowly for seconds to minutes at a time, on each core independently,
because of load outside the machine.  Raw wall time then measures the
host more than the program.  :class:`ReferenceClock` runs a fixed
reference kernel (the same mix of work as the program) at marks
through a job, at most once per :data:`MIN_GAP_S`.  It leaves the
kernel's own time out, and scales every interval between two marks by
``REFERENCE_S / k``, where ``k`` is the mean kernel time at the
nearest calibrated marks on either side.  The program never runs the
kernel, so a faster program still reads faster, while a slower host
does not read slower.
"""

from __future__ import annotations

import math
import time

import numpy as np

_clock = time.perf_counter

#: Nominal time of :func:`reference_kernel`: the scaled clock reads in
#: seconds of a machine on which the kernel takes this long between
#: the program's rounds (a calm 2.1 GHz Xeon vCPU).
REFERENCE_S = 1.3e-3
#: A mark calibrates only when the last calibration is this old, which
#: keeps the kernel (about 3 ms) near 5 % of a run.
MIN_GAP_S = 0.05

_MATRIX = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
_VECTOR = np.linspace(0.0, 1.0, 4096)
#: 8 MB: more than a core's L2 cache, so the kernel also feels the
#: shared-cache and memory contention that slows the program's larger
#: arrays (it adds 8 MB to the resident memory of every run).
_STREAM = np.linspace(0.0, 1.0, 1 << 20)


def _kernel_once() -> float:
    start = _clock()
    total = 0
    for i in range(3000):
        total += i * i
    vector = _VECTOR
    for _ in range(16):
        vector = np.sqrt(vector * vector + 1.0)
    matrix = _MATRIX
    for _ in range(16):
        matrix = np.tanh(matrix @ _MATRIX)
    np.multiply(_STREAM, 1.0, out=_STREAM)
    _STREAM.sum()
    return _clock() - start


def reference_kernel() -> float:
    """Seconds the fixed reference work takes now: a pure-Python loop,
    small element-wise and matmul numpy calls, and a pass over a buffer
    larger than L2, the mix of work the program does.  Best of two: a
    stray interrupt does not count, but the caches are about as cold as
    the program finds them, which tracks the program's slowdowns better
    than a fully warmed kernel does."""
    return min(_kernel_once(), _kernel_once())


class ReferenceClock:
    """Marks through one job; :meth:`seconds` gives the scaled time
    between two of them.  With ``calibrate=False`` no kernel runs and
    :meth:`seconds` is plain wall time."""

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self._times: "list[float]" = []   # wall clock minus kernel time
        self._kernels: "list[float | None]" = []
        self._paused = 0.0
        self._last = -math.inf
        self._scaled: "list[float] | None" = None

    def mark(self, force: bool = False) -> int:
        """Record a mark (calibrating when due, or when ``force``) and
        return its index."""
        now = _clock()
        self._times.append(now - self._paused)
        kernel = None
        if self.calibrate and (force or now - self._last >= MIN_GAP_S):
            kernel = reference_kernel()
            self._last = _clock()
            self._paused += self._last - now
        self._kernels.append(kernel)
        self._scaled = None
        return len(self._times) - 1

    def kernels(self) -> "list[float]":
        """Every kernel time measured so far, in seconds."""
        return [k for k in self._kernels if k is not None]

    def raw_seconds(self, first: int, last: int) -> float:
        """Wall time from mark ``first`` to mark ``last``, kernel time
        left out."""
        return self._times[last] - self._times[first]

    def seconds(self, first: int, last: int) -> float:
        """Scaled time from mark ``first`` to mark ``last``."""
        if self._scaled is None:
            self._scaled = self._cumulative()
        return self._scaled[last] - self._scaled[first]

    def _cumulative(self) -> "list[float]":
        n = len(self._times)
        before: "list[float | None]" = [None] * n
        after: "list[float | None]" = [None] * n
        seen = None
        for i, kernel in enumerate(self._kernels):
            seen = kernel if kernel is not None else seen
            before[i] = seen
        seen = None
        for i in range(n - 1, -1, -1):
            kernel = self._kernels[i]
            seen = kernel if kernel is not None else seen
            after[i] = seen
        cumulative = [0.0] * n
        for i in range(1, n):
            around = [k for k in (before[i - 1], after[i]) if k is not None]
            scale = REFERENCE_S / (sum(around) / len(around)) \
                if around else 1.0
            cumulative[i] = cumulative[i - 1] + \
                (self._times[i] - self._times[i - 1]) * scale
        return cumulative

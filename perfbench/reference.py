"""Reference kernels: fixed code, independent of the library, that the
runner times alongside the operations to track the machine's speed.

On a shared host the speed of the same code drifts by 20% and more between
15-second windows and flickers by up to 1.7x within a second, and code of one
kind drifts together. An operation's time divided by the mean time of a
reference kernel of the same kind, sampled evenly through it (or just
around it, for operations shorter than the sampling interval), cancels most
of that drift. One ``ref`` is one call of the workload's kernel,
interleaved with the workload's own code, so it reads slower than the kernel
alone.

* ``python_kernel`` is interpreter-bound: tuple slicing, dict and set
  inserts, small-int arithmetic and a generator sum, as in the decoders,
  balls and verification loops. About 0.1 ms.
* ``numpy_kernel`` streams shifts, masks, adds and a modulus over a 2^18-word
  int64 array, as the signature sweeps do over their chunks. About 2.5 ms.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left
from itertools import accumulate

import numpy as np

_WORD = tuple(range(24))
_ARRAY = np.arange(1 << 18, dtype=np.int64)


def python_kernel() -> int:
    acc = 0
    seen = set()
    last = {}
    for i in range(30):
        y = _WORD[: i % 20] + _WORD[i % 20 + 3 :]
        last[y[-1] ^ i & 63] = y
        seen.add((i * 2654435761) & 0xFFFF)
        acc += sum(v * (j + 1) for j, v in enumerate(y)) % 23
    return acc + len(seen) + len(last)


def numpy_kernel() -> int:
    x = (_ARRAY >> 3) ^ _ARRAY
    x = (x & 0x5555) + ((x >> 1) & 0x5555)
    return int((x % 7).sum())


class Sampler:
    """Calls ``kernel`` from a SIGALRM handler every PERIOD kernel-times of
    wall time (at least MIN_INTERVAL_S), so the kernel takes about 1/PERIOD
    of the run and samples the machine's speed evenly, inside long
    operations as well as between short ones. The handler runs in the main
    thread between bytecodes (or when a numpy call returns); no thread or
    process is started. A handler never straddles a ``perf_counter_ns``
    reading, so its time can be taken out of the operation it interrupted
    exactly."""

    PERIOD = 20
    MIN_INTERVAL_S = 0.01
    TRIM = 0.1  # share of samples dropped at each end before averaging

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.starts = array("q")  # perf_counter_ns at each kernel call
        self.kernel_ns = array("q")  # the call's duration
        self.handler_ns = array("q")  # from the call to the handler's return
        self._busy = False
        self._means: dict[tuple[int, int], float] = {}

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # an alarm that fell due during a sample
            return
        self._busy = True
        # The collector stays off during the call, so that a collection the
        # operation's allocations have made due runs in the operation.
        collect = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter_ns()
        self.kernel()
        t1 = time.perf_counter_ns()
        if collect:
            gc.enable()
        self.starts.append(t0)
        self.kernel_ns.append(t1 - t0)
        self.handler_ns.append(time.perf_counter_ns() - t0)
        self._busy = False

    def __enter__(self) -> "Sampler":
        t0 = time.perf_counter_ns()
        for _ in range(3):
            self.kernel()
        interval = max(self.MIN_INTERVAL_S, self.PERIOD * (time.perf_counter_ns() - t0) / 3e9)
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._handler_sum = [0, *accumulate(self.handler_ns)]

    def own_ns(self, start: int, end: int) -> int:
        """Wall time from start to end, less the handler's time inside it."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        return end - start - (self._handler_sum[hi] - self._handler_sum[lo])

    def ref_ns(self, start: int, end: int) -> float:
        """Trimmed mean kernel time over the samples taken from start to end;
        if there are none, the mean of the samples just before and just
        after. The speed flickers within a second, so the samples closest to
        an operation track it best."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        if hi == lo:
            lo, hi = max(0, lo - 1), min(len(self.starts), lo + 1)
        if (lo, hi) not in self._means:
            window = sorted(self.kernel_ns[lo:hi])
            cut = int(len(window) * self.TRIM)
            self._means[lo, hi] = statistics.fmean(window[cut : len(window) - cut])
        return self._means[lo, hi]

"""Reference-speed time: wall time with the box's slowdown taken out.

The box this runs on is a few cores of a shared host, and its speed
moves by up to 2x on every scale from milliseconds to minutes (README,
"Noise"): CPU time moves with wall time, no steal is reported, and the
undisturbed speed shows only for instants.  So no run of a seconds-long
workload is clean, and neither the best nor the median of a few runs is
steady.

What is steady is the speed of a tiny fixed piece of Python measured
*while the workload runs*.  An interval timer interrupts the workload
every ``PERIOD_S`` of wall time; the handler times ``kernel()`` and the
stretch of work since the previous sample is credited at the speed the
kernel just ran at: ``REFERENCE_KERNEL_S / kernel seconds``.  The sum is
the time the work would have taken on a core that runs the kernel in
``REFERENCE_KERNEL_S`` throughout.  The kernel is interpreter-bound like
the program (dict stores, integer arithmetic, a loop); the correction is
first-order only, since other code slows by somewhat other factors.
Over ten runs of one seed per workload the spread (IQR / median) of the
wall time was 0.20-0.43 and of the reference time 0.05-0.10; numpy and
cold-cache kernels, smoothing and clipping were tried and were no
steadier.
"""

from __future__ import annotations

import bisect
import itertools
import math
import signal
import time

#: Wall seconds between samples.  2 ms and 8 ms gave the same spread;
#: at 4 ms the handler takes about 1 % of the run.
PERIOD_S = 0.004
#: Seconds one ``kernel()`` takes at the reference speed: its median on
#: the reference box in a quiet spell (its fastest percent is 14.7 us).
#: It only fixes the scale.  A constant, not a per-run minimum or median:
#: a run can pass without one quiet instant.
REFERENCE_KERNEL_S = 16.8e-6


def kernel(n: int = 150) -> int:
    table = {}
    total = 0
    for i in range(n):
        table[i & 63] = total
        total += (i * 7) ^ (total >> 3)
    return total


class Calibrator:
    """Samples the kernel's speed on a timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self._samples: list[tuple[float, float, float]] = []
        self._previous_handler = None
        self._started = 0.0

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        begin = clock()
        kernel()  # refill the caches the workload has just evicted
        t0 = clock()
        kernel()
        end = clock()
        self._samples.append((begin, end, end - t0))

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def reference_seconds(self, intervals: list[tuple[float, float]]) -> float:
        """Reference-speed seconds of the work done in ``intervals`` (each
        ``(begin, end)`` on ``time.perf_counter``, after ``start`` and
        before this call or ``stop``).  Time spent in the handler itself
        is no work and counts as none."""
        if not self._samples:  # a run shorter than one period
            return sum(end - begin for begin, end in intervals)
        begins, ends, kernel_s = zip(*self._samples)
        speed = [REFERENCE_KERNEL_S / seconds for seconds in kernel_s]
        # The stretch of work before sample i runs from the end of sample
        # i-1 to the beginning of sample i, at speed[i]; what follows the
        # last sample runs at the last speed.
        work_from = (self._started, *ends)
        work_to = (*begins, math.inf)
        work_speed = (*speed, speed[-1])
        # done[i]: reference seconds of work before stretch i began.
        done = list(
            itertools.accumulate(
                ((to - since) * at for since, to, at in zip(work_from, begins, speed)),
                initial=0.0,
            )
        )

        def done_by(moment: float) -> float:
            """Reference seconds of work done up to ``moment``: it rises
            over each stretch of work and stays flat across each handler
            call."""
            index = bisect.bisect_right(work_from, moment) - 1
            worked = min(moment, work_to[index]) - work_from[index]
            return done[index] + worked * work_speed[index]

        return sum(done_by(end) - done_by(begin) for begin, end in intervals)

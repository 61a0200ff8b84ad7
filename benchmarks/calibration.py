"""A yardstick for the host's speed, sampled while the jobs run.

The benchmark runs on shared virtual machines whose speed drifts by 20 % or
more over tens of seconds, and every timing of the engine drifts with it.
`sample` is a fixed exact computation in plain Python: a Gauss-Jordan over
Fraction on a fixed 8x8 matrix plus a strided walk over a 200 000-entry
Fraction list, so that, like the engine, it leans on Fraction arithmetic and
on the memory caches.  It does not use spectra_dr, so no change to the
engine changes its time.

While a Yardstick is entered, a SIGALRM timer runs `sample` every
INTERVAL_S, between two bytecodes of whatever job is running, and records
when it ran and how long it took.  A job's own time is its wall time minus
the samples inside it; dividing that by the samples' median time around the
job removes most of the drift (measured on a 2-vCPU VM: the max/min ratio
of one job's time over 12 runs fell from 1.38 to 1.16).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# Seconds one sample takes at the reference speed (its median on a quiet
# 2-vCPU x86-64 VM under CPython 3.11); rescaled times are in seconds at
# that speed.
REFERENCE_S = 0.010
WINDOW_S = 0.5  # samples this close to a job count for its speed

N = 8
_BIG = [Fraction(i % 97 - 48, 1 + i % 5) for i in range(200_000)]


def sample() -> Fraction:
    x, a = 12345, []
    for _ in range(N):
        row = []
        for _ in range(N):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(Fraction((x >> 16) % 7 - 3, 1 + (x >> 8) % 3))
        a.append(row)
    for c in range(N):
        p = next((i for i in range(c, N) if a[i][c]), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for i in range(N):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [u - f * v for u, v in zip(a[i], a[c])]
    acc, j = Fraction(0), 7
    for _ in range(1000):
        j = (j * 7919 + 13) % (len(_BIG) - 1)
        acc += _BIG[j] * _BIG[j + 1]
    return acc


class Yardstick:
    """Context manager that samples the host's speed on a timer signal."""

    def __init__(self):
        self.samples: list = []  # (start, seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        sample()
        self.samples.append((t0, time.perf_counter() - t0))

    def rescale(self, start: float, end: float) -> tuple:
        """(own seconds, seconds at the reference speed) of a job that ran
        from start to end."""
        own = end - start - sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - WINDOW_S <= t < end + WINDOW_S]
        speed = statistics.median(near or [d for _, d in self.samples] or [REFERENCE_S])
        return own, own * REFERENCE_S / speed

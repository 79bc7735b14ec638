"""Host-speed probe: scales end-to-end times to an uncontended core.

On a shared host the core a run gets can turn up to 1.8x slower for tens of
seconds at a time while other tenants load it.  CPU time slows with wall
time, so it is no way out.  A pass therefore times a fixed probe kernel
every INTERVAL_S while it runs.  Its slowdown is the mean probe time over
REF_S, the probe time on an idle core.  run.py divides the pass's times by
that slowdown.  The probe is the benchmark's own code and warms its caches
before each timing, so a change to the program barely moves what it
measures.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# probe time on an idle core of a 2-vCPU Xeon (Sapphire Rapids) VM; the
# scale of all corrected times, so it must not change between commits
REF_S = 3.0e-4
INTERVAL_S = 0.05
WINDOW_S = 5 * INTERVAL_S
_M = np.full((24, 24), 1.0 / 48)


def kernel() -> None:
    """Fixed work of the kinds the program does: small-array numpy steps, as
    in the fixed-point and eigenvector loops, and dict and integer work."""
    w = np.zeros(24)
    for _ in range(40):
        w = 0.3 + 0.5 * (w * (_M @ w))
        float(np.max(np.abs(w)))
    d: dict[int, int] = {}
    for i in range(300):
        d[i & 63] = d.get(i & 63, 0) + i


def timed() -> float:
    kernel()  # the program may have just evicted the probe from the caches
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def spot(n: int = 40) -> float:
    """Slowdown now, from n back-to-back probes."""
    return statistics.fmean(timed() for _ in range(n)) / REF_S


class Sampler:
    """Times the probe every INTERVAL_S of wall time while active (SIGALRM)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe time)

    def _sample(self):
        self.samples.append((time.perf_counter(), timed()))

    def _tick(self, signum, frame):
        self._sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # a pass shorter than INTERVAL_S still gets a reading
        for _ in range(5):
            self._sample()

    def slowdown(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Slowdown from the samples taken between start and end, each side
        widened by WINDOW_S so that a short interval still has samples."""
        xs = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.fmean(xs or [d for _, d in self.samples]) / REF_S

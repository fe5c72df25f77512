"""The benchmark's speed reference: a fixed task timed in between the
program's own work, on the same core.

The host's CPU speed changes by up to 2x within a minute, because other
tenants share the machine, and each core of the container changes on its
own.  While a workload runs, `Calibration` times one fixed task from a timer
signal every INTERVAL_S of CPU time.  The handler runs between two bytecodes
of whatever the process is doing, so the samples see the speed the jobs
see.  The worker leaves the handler's time out of the job's time.

The task is standard library only and never runs compatlie code: the
inverse of a fixed 6x6 rational matrix by `generate.inverse`, then a loop of
small-integer arithmetic, about half of the time each.  The host slows the
two kinds of work unequally.  Measured against whole jobs on a 2-core
container, the log-log slope of job time on sample time was 0.62-0.76 for
rational matrix inverses alone and 1.07-1.21 for the integer loop alone;
the mix reads 0.95-1.13, so one sample scales like a job.

`speeds` gives every job the median sample during the job; the worker
rescales the job's time by REF_S / that median (*reference seconds*).  A
change to the program shows in full; only the host's speed is divided out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generate  # noqa: E402

INTERVAL_S = 0.15
LOOP_STEPS = 30_000
# One sample took 4-7 ms on a 2-core container with Python 3.11.7, most
# often 6 ms: the reference speed, so reference seconds read close to wall
# seconds there.
REF_S = 0.006
# A job with fewer samples than this is timed against the samples nearest to
# its midpoint instead.
MIN_SAMPLES = 9


def _matrix():
    rng = Random(5)
    m = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(6)]
    for i in range(6):
        m[i][i] += 7
    return m


MATRIX = _matrix()


def sample() -> float:
    """Seconds of one run of the task."""
    start = time.perf_counter()
    generate.inverse(MATRIX)
    x = 0
    for i in range(LOOP_STEPS):
        x = (x * 31 + i * i) % 1_000_003
    return time.perf_counter() - start


class Calibration:
    """Samples the task from SIGPROF while active (a context manager)."""

    def __init__(self):
        self.samples = []  # (end, duration), in time.perf_counter seconds
        self.spent = 0.0  # total time inside the handler

    def _tick(self, signum, frame):
        start = time.perf_counter()
        duration = sample()
        self.samples.append((time.perf_counter(), duration))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)


def speeds(spans, samples):
    """For each (start, end) span, the median duration of the samples that
    ended inside it, or of the MIN_SAMPLES samples nearest to its midpoint
    when fewer ended inside.  `samples` is a list of (end, duration) sorted
    by end; None when it is empty."""
    if not samples:
        return [None] * len(spans)
    ends = [e for e, _ in samples]
    out = []
    for start, end in spans:
        lo, hi = bisect.bisect_left(ends, start), bisect.bisect_right(ends, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(ends, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(ends) - MIN_SAMPLES))
            hi = min(len(ends), lo + MIN_SAMPLES)
        out.append(statistics.median(d for _, d in samples[lo:hi]))
    return out

"""Host-speed calibration for the timed runs.

The machines this benchmark runs on drift in speed by tens of percent over
seconds to minutes, for every process alike.  A calibration burst is a
fixed amount of pure-Python work: eliminations in the oracle's polynomial
arithmetic, which is the same kind of work mrlrc does and shares no code
with it.  Each measured slice of work is divided by the mean burst time
around it and multiplied by CAL_REF_S, so times and rates are reported at
the speed at which one burst takes CAL_REF_S seconds, and the drift
cancels.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

import oracle

CAL_REF_S = 0.012
PERIOD_S = 0.2

_rnd = random.Random(0)
_FIELDS = (oracle.GF(2, (1, 0, 1, 1, 1, 0, 0, 0, 1), tables=False),   # GF(2^8)
           oracle.GF(3, (2, 2, 0, 0, 1), tables=False))               # GF(3^4)
_MATRICES = tuple([[_rnd.randrange(f.order) for _ in range(size)]
                   for _ in range(size)]
                  for f, size in zip(_FIELDS, (8, 6)))


def calibrate() -> float:
    """Seconds one calibration burst takes on this machine right now."""
    start = time.perf_counter()
    for _ in range(5):
        for f, m in zip(_FIELDS, _MATRICES):
            oracle.rank(f, m)
    return time.perf_counter() - start


class SpeedProbe:
    """Runs a calibration burst every PERIOD_S seconds of wall time from a
    SIGALRM handler, so that even a sweep lasting seconds is calibrated by
    the bursts taken while it ran.  Use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, burst seconds)
        self.busy = 0.0                                 # seconds spent in bursts
        self._running = False
        self._previous = None

    def _tick(self, _signum=None, _frame=None):
        if self._running:
            return
        self._running = True
        try:
            start = time.perf_counter()
            self.samples.append((start, calibrate()))
            self.busy += time.perf_counter() - start
        finally:
            self._running = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measured(self, fn, *args):
        """(seconds at reference speed, wall seconds, result) of fn(*args);
        the bursts that interrupted it are not counted."""
        busy = self.busy
        start = time.perf_counter()
        out = fn(*args)
        end = time.perf_counter()
        wall = end - start - (self.busy - busy)
        window = ([b for t, b in self.samples if start - PERIOD_S <= t <= end]
                  or [self.samples[-1][1]])
        return wall * CAL_REF_S / statistics.mean(window), wall, out


def bracketed(fn, *args) -> float:
    """fn(*args) returns a duration in seconds; give it at reference speed,
    calibrated by one burst just before the call and one just after.

    For set-up, which runs in child processes that the SpeedProbe handler
    cannot reach.  In-process slices use SpeedProbe: bracketing them too
    spread the rates up to four times wider (perfbench/README.md)."""
    before = calibrate()
    seconds = fn(*args)
    after = calibrate()
    return seconds * 2 * CAL_REF_S / (before + after)

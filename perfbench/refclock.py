"""A clock in reference seconds: wall time corrected for machine speed.

On a shared machine the same work can take half again as long from one
minute to the next.  :class:`RefClock` samples the machine's speed while
the benchmark measures: a timer interrupts the process every
``PERIOD`` seconds and times a fixed pure-Python loop (the probe).  The
clock then advances by wall time scaled by ``REFERENCE / probe time``,
so a stretch measured while the machine runs at half speed counts as
half as many reference seconds, and the probes' own time is left out.
On a machine as fast as the reference, reference seconds equal wall
seconds.  The probe is the benchmark's own code: a change to the
program cannot move it.
"""

from __future__ import annotations

import signal
import time

#: Seconds between probes, and one probe's time on the reference
#: machine (a 2-core x86 VM at 2 GHz running CPython 3.11, fast state).
PERIOD = 0.05
REFERENCE = 0.0009
#: Weight of the newest probe in the running speed estimate.
SMOOTHING = 0.5
_LOOP = 10_000


def _probe() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class RefClock:
    """``now()`` in reference seconds while started; see the module doc."""

    def __init__(self):
        self._state = (0.0, time.perf_counter(), 1.0)  # (ref, wall, factor)
        self._previous = None
        self._running = False
        self.probes = 0
        self.wall_s = 0.0
        self.ref_s = 0.0

    def _tick(self, signum, frame) -> None:
        ref, wall, factor = self._state
        t0 = time.perf_counter()
        ref += (t0 - wall) * factor
        dur = _probe()
        speed = REFERENCE / dur
        factor = speed if not self.probes else (
            SMOOTHING * speed + (1.0 - SMOOTHING) * factor)
        self.probes += 1
        self._state = (ref, time.perf_counter(), factor)

    def start(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._started = (time.perf_counter(), self.now())
        return self

    def stop(self) -> None:
        """Stop probing; the clock keeps the last speed.  Idempotent."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self.wall_s = time.perf_counter() - self._started[0]
        self.ref_s = self.now() - self._started[1]

    def now(self) -> float:
        ref, wall, factor = self._state  # one read: a tick may interleave
        return ref + (time.perf_counter() - wall) * factor

    @property
    def speed(self) -> float:
        """Mean machine speed over the run, reference = 1."""
        return self.ref_s / self.wall_s if self.wall_s else 1.0

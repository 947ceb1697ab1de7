"""Host time at a fixed reference speed, for shared and noisy machines.

On a shared 2-vCPU x86-64 VM the same CPU-bound work runs up to ~45%
slower for stretches of a few seconds (other tenants on the host; the
process is not descheduled, so CPU time slows just as much as wall
time).  Medians over a run of ~15 s cannot average that out: repeating
identical work gave raw times with a 10-13% coefficient of variation.

:class:`ReferenceClock` samples the machine's current speed while a unit
runs: a ``SIGALRM`` timer fires every :data:`PERIOD_S` and the handler
times a fixed probe (:func:`probe`).  A stretch of work that
took ``t`` seconds while the probe took ``d`` seconds counts as
``t * REFERENCE_PROBE_S / d`` reference seconds, so a stretch that ran
slowly because the whole machine was slow counts as if it had run at the
reference speed.  The probe's own time is excluded from every stretch.
The program under test never sees the probe: it runs in the benchmark's
handler, between bytecodes of the main thread.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from typing import List

import numpy as np

#: Seconds between speed samples.
PERIOD_S = 0.05

#: The probe's duration at the reference speed: about its duration on a
#: shared 2-vCPU x86-64 VM (CPython 3.11, NumPy 2.4) when it is not
#: slowed down (its 5th percentile there).
REFERENCE_PROBE_S = 3.0e-4

_ROW = np.arange(64, dtype=np.int64)


def probe() -> int:
    """Fixed work shaped like the simulator's inner loops (small NumPy
    calls and Python integer arithmetic), so that its duration tracks how
    fast the machine currently runs them.

    It allocates no object that the garbage collector tracks, and
    :meth:`ReferenceClock._sample` runs it with the collector disabled,
    so no collection the program's own allocations call for lands in the
    probe's time (where it would shrink the program's reference time).
    """
    total = 0
    for i in range(120):
        total += int(np.add.reduce(_ROW * i)) % 7
        total += (i * 2654435761 + total) % 97
    return total


class ReferenceClock:
    """Speed samples over a ``with`` block, and reference-speed intervals."""

    def __init__(self) -> None:
        self._starts: List[float] = []
        self._durations: List[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            probe()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._starts.append(start)
        self._durations.append(end - start)

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self, start: float, end: float) -> float:
        """Time spent probing inside ``[start, end]``."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        return sum(self._durations[lo:hi])

    def reference_s(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work done in ``[start, end]``.

        Each stretch between probes is scaled by the probe that ends it;
        the last stretch, whose probe has not run yet, by the one before.
        """
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_left(self._starts, end)
        total = 0.0
        cursor = start
        for index in range(lo, hi):
            total += (self._starts[index] - cursor) / self._durations[index]
            cursor = self._starts[index] + self._durations[index]
        last = self._durations[max(hi - 1, 0)]
        total += max(end - cursor, 0.0) / last
        return total * REFERENCE_PROBE_S

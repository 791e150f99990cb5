"""Host-speed calibration.

The shared host this benchmark runs on moves between speed levels that
last from seconds to minutes (a plain interpreter loop takes 1x, 1.4x
or 2x its fastest time), so two runs of the same code can differ by
30% or more in wall time.  A fixed interpreter loop, independent of the
package, is timed next to the requests, and every request latency is
taken to the reference speed:

    reported time = measured time * REFERENCE_S / (loop time next to it)

Of the kernels tried (big-integer convolution, tuples in sets, small
objects and string formatting, a bare loop), the bare loop tracked the
package's own slowdowns best on all four workloads.  Process start-up
times (set-up, cold calls) follow the host differently; they are
scaled the same way by a bare `python -c pass` timed next to them
(START_REFERENCE_S, run.StartScale).  The raw times are printed beside
the reported ones in the `#` lines of run.py.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

# The loop's time at the reference speed: about its fastest time on the
# host it was written on.  Any fixed value works, since only ratios
# between runs are compared.
REFERENCE_S = 0.5e-3
LOOP = 8000
# Wall time of a bare `python -c pass` at the reference speed: process
# start-up times (set-up, cold calls) are scaled by it, see run.py.
START_REFERENCE_S = 50e-3
REPEATS = 3
# Speed levels last seconds or more: a probe every quarter second, and
# the median of the last five, follow them without chasing single slow
# probes.
EVERY_S = 0.25
WINDOW = 5


def kernel() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


def probe() -> float:
    """The loop's fastest time over REPEATS back-to-back runs, so a run
    cut by an interrupt does not count."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return min(times)


class Clock:
    """Probes at least EVERY_S seconds apart, smoothed over the last
    WINDOW of them; `tick()` returns the factor for a time measured
    right after it."""

    def __init__(self) -> None:
        self.recent = [probe()]
        self.last = perf_counter()
        self.probes = 1

    def tick(self) -> float:
        if perf_counter() - self.last >= EVERY_S:
            self.recent = self.recent[-(WINDOW - 1):] + [probe()]
            self.last = perf_counter()
            self.probes += 1
        return REFERENCE_S / median(self.recent)

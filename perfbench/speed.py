"""Steady seconds: wall time scaled to a fixed speed of the core it ran on.

On a shared machine the speed of a core changes from second to second with
the load of other tenants: a fixed pure-Python loop takes anywhere from 32
to 85 ms, in phases of a few seconds, and its CPU time moves with its wall
time.  A run of the benchmark spans a few such phases, so raw wall times of
the same code spread by more than the 25% a benchmark bound allows.

``Clock`` measures that speed from inside the timed process.  An interval
timer fires every ``INTERVAL_S`` seconds of wall time, and the signal
handler times two back-to-back passes of a fixed probe: tuple hashing and
dict lookups on small tables.  The first pass pays the cache misses that
the program's own work left behind, the second runs on warm caches, so the
pair weighs the core's speed and its cache state about equally; either
pass alone followed the package's slowdowns less closely on one workload
or another.  The probe allocates nothing, so it never runs the garbage
collector on the program's behalf.  The steady length of an interval
``[t0, t1]`` is

    (t1 - t0 - probe time inside it) * mean(REFERENCE_S / tick duration)

over the ticks that ended within ``WINDOW_S`` of the interval: the time
the same work would have taken on a core where a tick takes
``REFERENCE_S`` seconds.  The ticks sample wall time evenly, so the mean of
their speeds weights each phase by how long it lasted.

The timer uses ``SIGALRM``; nothing else in the process may use it while the
clock runs.
"""

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.02
WINDOW_S = 0.1
# About the median tick between the package's own work on the 2-core x86_64
# machine (CPython 3.11) of the README's figures, so that steady seconds
# read about like wall seconds there.
REFERENCE_S = 150e-6

_KEYS = tuple((i, i & 7, (i >> 3, i & 3)) for i in range(128))
_TABLE = dict.fromkeys(_KEYS, 1)
_INTS = {i: (i * 7919) % 10007 for i in range(512)}


def probe():
    """A fixed amount of work, 60 to 90 microseconds on the README's machine."""
    acc = 0
    table = _TABLE
    for key in _KEYS:
        acc += table[key]
    ints = _INTS
    for i in range(400):
        acc += ints[i & 511] ^ i
    return acc


class Clock:
    """Samples the core's speed every ``INTERVAL_S`` while it runs."""

    def __init__(self):
        self.ends = []
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        probe()
        probe()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def start(self):
        probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def seconds(self, t0, t1):
        """Steady seconds of the interval ``[t0, t1]`` of ``perf_counter``.

        With no tick near the interval the nearest one stands in; with no
        tick at all the wall time is returned unscaled.
        """
        ends, durations = self.ends, self.durations
        inside = sum(durations[bisect_left(ends, t0):bisect_right(ends, t1)])
        lo = bisect_left(ends, t0 - WINDOW_S)
        hi = bisect_right(ends, t1 + WINDOW_S)
        if lo == hi:
            if not ends:
                return t1 - t0
            lo, hi = (lo - 1, lo) if lo == len(ends) else (lo, lo + 1)
        window = durations[lo:hi]
        speed = sum(REFERENCE_S / d for d in window) / len(window)
        return (t1 - t0 - inside) * speed

    def raw_seconds(self, t0, t1):
        """Wall seconds of the interval, less the probes that ran in it."""
        ends = self.ends
        return t1 - t0 - sum(self.durations[bisect_left(ends, t0):bisect_right(ends, t1)])

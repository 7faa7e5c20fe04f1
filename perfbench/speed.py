"""Speed of the machine, sampled while a workload runs.

On a host shared with other tenants the same pass can take two or three
times as long in a slow phase, and such phases last minutes, so a 30 s run
cannot average them away.  The benchmark measures them instead.  While a pass runs,
a SIGALRM handler times a fixed reference loop every ``INTERVAL_S`` seconds,
so the samples come from the same moments as the work.  A pass is then
reported in reference seconds: its measured seconds outside the handler,
times ``NOMINAL_S`` over the median time of the reference loop during that
pass.  A reference second is a second on a machine where the loop takes
``NOMINAL_S``.

The loop is code of the benchmark and calls nothing in khoma, so no change
to khoma can change it: a change that makes khoma slower shows in full.  It
looks up tuple keys, in a scattered order, in a dict far larger than a
core's cache, because that is the kind of work khoma does and the kind that
slows down most when other tenants fill the caches.  The table is built on
first use, so a process that never samples does not pay for it, and
``footprint_mib`` tells how much resident memory it added.
"""

from __future__ import annotations

import functools
import os
import random
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
NOMINAL_S = 0.0015
TABLE_SIZE = 100_000
LOOP_LOOKUPS = 6000


def _resident_mib() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


@functools.cache
def _table():
    """The reference table (about 18 MiB), its keys in a scattered order, and
    the resident MiB that building them added."""
    before = _resident_mib()
    rng = random.Random(0)
    table = {(rng.getrandbits(20), n): n for n in range(TABLE_SIZE)}
    keys = list(table)
    rng.shuffle(keys)
    return table, keys, _resident_mib() - before


def footprint_mib() -> float:
    return _table()[2]


def reference_loop() -> float:
    """Seconds taken by a fixed run of scattered lookups in the table."""
    table, keys, _ = _table()
    started = perf_counter()
    total = index = 0
    for _ in range(LOOP_LOOKUPS):
        index = (index * 1103515245 + 12345) % TABLE_SIZE
        total += table[keys[index]]
    return perf_counter() - started


class SpeedProbe:
    """Context manager that samples ``reference_loop`` on a wall-clock timer."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self):
        _table()  # built before the timer starts
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame):
        self.samples.append(reference_loop())

    def scale(self, measured_s: float) -> float:
        """Factor from the ``measured_s`` seconds of the probed span, the
        handler included, to reference seconds of its work alone."""
        handler_s = sum(self.samples)
        if not self.samples:  # a span shorter than one interval
            self.samples.append(reference_loop())
        return NOMINAL_S / statistics.median(self.samples) * (measured_s - handler_s) / measured_s

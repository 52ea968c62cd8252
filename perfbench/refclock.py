"""The reference clock that the wall-clock metrics are read on.

The benchmark shares a few cores of a host with other tenants, and the
same work takes from 1.0x to 2x as long from one minute to the next
while the process is never descheduled: the cores themselves run slower
while the host is busy.  No statistic taken within one run removes a
slowdown that lasts the whole run.

So a run also times a fixed pure-Python *reference workload* in slices
between its rounds and set-ups, about ``SHARE`` of the run's time, and
reads its timings in *reference seconds*: a wall time divided by the
run's slowdown, the time the reference units took over the time they
take on this machine when little else loads it (``UNIT_S`` each).  A
slowdown of the host slows both alike and cancels; a change to the
program moves only the program's time.  The reference workload does
what the engine does most (dict probes on tuple keys, sorting,
allocating small objects and indexing them under SHA-1 digests) and
never calls the program.  It runs with the cyclic garbage collector
off, so the size of the program's heap cannot move it.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time

#: Seconds one reference unit takes on the benchmark machine when
#: little else loads it (a shared 2-core x86-64 VM, Python 3.11.7: the
#: fastest of 400 units).  Only the scale of the reported figures
#: depends on it.
UNIT_S = 0.055

#: Share of a run's nominal program time spent on reference units.
SHARE = 0.2

_rng = random.Random(0)
_KEYS = [("s%d" % i, i % 97) for i in range(20000)]
_ORDER = [_rng.randrange(len(_KEYS)) for _ in range(2000)]
_RECORDS = 12000


class _Event:
    __slots__ = ("time", "key", "payload")

    def __init__(self, time_, key, payload):
        self.time = time_
        self.key = key
        self.payload = payload


class _Record:
    def __init__(self, name, key):
        self.name = name
        self.key = key
        self.attrs = {"name": name}


def _unit() -> int:
    """One reference unit: a fixed sequence of interpreter work.

    The first half probes and sorts a small dict; the second builds an
    index of fresh objects under SHA-1 digests, as publishing an index
    does, so that the unit slows, as the program's set-up does, with the
    load other tenants put on memory."""
    counts = {}
    for j in _ORDER:
        key = _KEYS[j]
        counts[key] = counts.get(key, 0) + 1
        _Event(j * 0.5, key, [key[1]])
        if j % 50 == 0:
            sorted(counts.items())[:3]
    index = {}
    for i in range(_RECORDS):
        name = "urn:ref:%d" % i
        digest = hashlib.sha1(name.encode()).digest()
        index.setdefault(digest[0], []).append(
            _Record(name, (i, digest[:4])))
    return len(counts) + len(index)


class ReferenceClock:
    """Runs reference units between a run's rounds and reports the
    run's slowdown against ``UNIT_S``."""

    def __init__(self) -> None:
        self.units = 0
        self.elapsed_s = 0.0
        self._owed = 0.0

    def run(self, units: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(units):
                _unit()
            self.elapsed_s += time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.units += units

    def keep_up(self, nominal_s: float) -> None:
        """Account for *nominal_s* more seconds of program work: run
        the units that keep the reference at ``SHARE`` of it.  Given
        nominal times, the number of units does not depend on how fast
        the machine is."""
        self._owed += SHARE * nominal_s / UNIT_S
        due = int(self._owed) - self.units
        if due > 0:
            self.run(due)

    @property
    def slowdown(self) -> float:
        """Reference time taken over reference time unloaded."""
        if not self.units:
            self.run(1)
        return self.elapsed_s / (self.units * UNIT_S)

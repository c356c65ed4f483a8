"""Host-speed calibration: a fixed pure-Python reference loop.

On a shared host the speed of one core drifts by tens of percent within
minutes (other tenants, frequency scaling), so raw host seconds of two
runs are not comparable. The benchmark times :func:`reference_loop`
between slices of every timed ``Cluster.run`` and converts each slice's
host seconds into *reference seconds*: host seconds scaled to a host on
which the loop takes :data:`NOMINAL_S`. The loop uses only the standard
library (no ``repro`` code), so a change to the program cannot change
it, and it exercises what a discrete-event simulator spends its time
on: a heap of events, generator resumptions, small objects and dicts.
"""

from __future__ import annotations

import heapq
import time

#: Reference-loop duration that defines one reference second (its
#: typical duration on the machine the benchmark was tuned on).
NOMINAL_S = 0.02
_PROCESSES = 1600
_STEPS = 5


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _process(key: int, state: dict):
    for step in range(_STEPS):
        item = _Item(key, step)
        state[item.key] = state.get(item.key, 0) + item.value
        yield (key * 7 + step) % 13 + 1


def reference_loop() -> int:
    """A tiny event loop over generator processes; returns a checksum."""
    state: dict = {}
    processes = {key: _process(key, state) for key in range(_PROCESSES)}
    queue = [(0.0, key, key) for key in range(_PROCESSES)]
    heapq.heapify(queue)
    seq = _PROCESSES
    while queue:
        now, _, key = heapq.heappop(queue)
        try:
            delay = next(processes[key])
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (now + delay, seq, key))
    return sum(state.values())


def loop_seconds() -> float:
    """Host seconds one reference loop takes right now."""
    began = time.perf_counter()
    reference_loop()
    return time.perf_counter() - began

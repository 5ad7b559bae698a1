"""Host-speed probe: a fixed reference computation timed next to every
sample, so the end-to-end figures can be given at one host speed.

On a shared host the CPUs' speed drifts by tens of percent over
stretches of seconds to minutes (the same σ on the same input took
11.5 ms in one 5 s stretch and 19.4 ms in another).  That drift is the
same for the program and for the probe, whose code is part of the
benchmark, never of the program, so its time moves only with the host.
The two CPUs drift independently of each other (their probe times
correlate at about 0.1), so a workload whose work spans processes
probes every CPU in turn and takes the mean; a single-process workload
probes the CPU it runs on.

The in-process workloads probe before and after every timed operation;
the serve workloads pause both connections every ``SEGMENT_S`` and probe
with no request in flight.  A sample's *slowdown* is the mean of the
two probes around it over ``REFERENCE_MS``; the end-to-end times are
divided by it and the rates multiplied by it.  Unscaled figures stay
in the result file (``e2e_raw``).
"""

from __future__ import annotations

import asyncio
import os
from bisect import bisect_right
from time import perf_counter
from typing import List, Tuple

import numpy as np

#: probe time on the host in ``host.json``; only the ratio of two
#: runs' figures matters, this keeps the scaled figures near raw ones
REFERENCE_MS = 20.0
#: serve workloads: seconds between two pauses for a probe
SEGMENT_S = 1.0

_rng = np.random.default_rng(0)
_A = _rng.integers(0, 1 << 20, size=(400, 400), dtype=np.int64)
_B = _rng.integers(0, 1 << 20, size=(400, 400), dtype=np.int64)


def _once() -> float:
    """One probe, in milliseconds: a min-plus row reduction over
    (400, 400) int64 arrays (the shape of the vectorized σ kernel) and
    a loop over small Python objects (the shape of the object model
    and of the daemon's request handling)."""
    t0 = perf_counter()
    for i in range(0, 400, 8):
        np.min(_A[i][:, None] + _B, axis=0)
    table = {}
    for i in range(40000):
        key = (i & 255, i >> 8)
        table[key] = table.get(key, 0) + i
    return (perf_counter() - t0) * 1e3


def probe_ms(every_cpu: bool = False) -> float:
    """One probe on the current CPU, or with ``every_cpu`` the mean of
    one probe pinned to each CPU this process may use."""
    if not every_cpu:
        return _once()
    mask = os.sched_getaffinity(0)
    if len(mask) < 2:
        return _once()
    times = []
    try:
        for cpu in sorted(mask):
            os.sched_setaffinity(0, {cpu})
            times.append(_once())
    finally:
        os.sched_setaffinity(0, mask)
    return sum(times) / len(times)


def slowdown(before_ms: float, after_ms: float) -> float:
    """Host slowdown over an interval from the probes around it."""
    return (before_ms + after_ms) / (2.0 * REFERENCE_MS)


class SpeedLog:
    """Probes at instants of a serve window, and the slowdown of the
    host at any instant between two of them."""

    def __init__(self, every_cpu: bool):
        self.every_cpu = every_cpu
        self.at: List[float] = []
        self.ms: List[float] = []
        #: request-carrying stretches between pauses, ``(start, end)``
        self.segments: List[Tuple[float, float]] = []

    def probe(self) -> None:
        self.at.append(perf_counter())
        self.ms.append(probe_ms(self.every_cpu))

    def slowdown(self, t: float) -> float:
        i = bisect_right(self.at, t)
        return slowdown(self.ms[max(i - 1, 0)],
                        self.ms[min(i, len(self.ms) - 1)])

    def active_s(self, raw: bool = False) -> float:
        """Seconds the connections could send, each stretch divided by
        the slowdown at its middle unless ``raw``."""
        return sum((b - a) / (1.0 if raw else self.slowdown((a + b) / 2))
                   for a, b in self.segments)


class Gate:
    """Lets the connections' requests through, except while a probe
    runs: :meth:`pacer` closes the gate every ``SEGMENT_S``, waits until
    no request is in flight, probes and opens it again.  A connection
    holds the gate (``async with gate``) for each request, or for a
    mutation and the read that follows it."""

    def __init__(self, speed: SpeedLog):
        self.speed = speed
        self._open = asyncio.Event()
        self._open.set()
        self._idle = asyncio.Event()
        self._idle.set()
        self._busy = 0
        #: when the stretch still open at the end of :meth:`pacer` began
        self.last_start = perf_counter()

    async def __aenter__(self):
        await self._open.wait()
        self._busy += 1
        self._idle.clear()

    async def __aexit__(self, *exc):
        self._busy -= 1
        if not self._busy:
            self._idle.set()

    async def pacer(self, deadline: float) -> None:
        start = self.last_start = perf_counter()
        while perf_counter() + SEGMENT_S < deadline:
            await asyncio.sleep(SEGMENT_S)
            self._open.clear()
            await self._idle.wait()
            self.speed.segments.append((start, perf_counter()))
            self.speed.probe()
            start = perf_counter()
            self._open.set()
        # the last stretch runs to the deadline; the caller closes it
        self.last_start = start

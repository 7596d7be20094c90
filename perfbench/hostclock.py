"""Host time rescaled to a reference host speed.

The shared machines this benchmark runs on change speed by up to 1.7x
from one minute to the next (another tenant's load; no steal time is
reported), so raw wall times of the same work spread by 20-40% across
runs minutes apart, however long each run measures.  A fixed,
program-independent reference loop slows down with the host, so the
benchmark times it at short intervals during every timed phase and
rescales each stretch of the phase's wall time by
``REFERENCE_S / (the loop's wall next to it)``.  The result is the wall
time the phase would take on a host where the loop takes exactly
``REFERENCE_S`` -- a speed-up or slow-down of the program shows in full,
a change of host speed largely cancels.  The probes' own time is not
part of the phase.  Raw wall times are reported beside the rescaled
ones.
"""

from __future__ import annotations

import gc
import heapq
import time

_clock = time.perf_counter

#: Nominal wall of one reference loop on the reference host, in seconds.
REFERENCE_S = 0.020

#: Longest stretch of a phase between two probes, in seconds.
SEGMENT_S = 0.25


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int):
        self.a = a
        self.b = b

    def value(self, x: float) -> float:
        return self.a * x + self.b


def reference_loop(iterations: int = 15000) -> float:
    """Run the fixed reference work; returns its wall time in seconds.

    A mix of what the interpreter spends its time on in the program --
    method calls, attribute reads, tuple-keyed dict updates, heap pushes,
    float arithmetic -- with the collector paused, so the loop's cost
    does not depend on how much memory the program holds.
    """
    points = [_Point(i * 0.5, i) for i in range(256)]
    table: dict = {}
    heap: list = []
    total = 0.0
    enabled = gc.isenabled()
    gc.disable()
    start = _clock()
    for i in range(iterations):
        value = points[i & 255].value(i * 0.001)
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0.0) + value
        heapq.heappush(heap, (value, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        total += min(value, 50.0)
    elapsed = _clock() - start
    if enabled:
        gc.enable()
    return elapsed


class HostClock:
    """Times one phase in raw and in reference-speed seconds.

    Call :meth:`start`, then :meth:`tick` often from inside the phase
    (it probes at most every ``SEGMENT_S``), then :meth:`stop`.
    """

    def __init__(self) -> None:
        #: raw wall of the phase, probes excluded
        self.raw_s = 0.0
        #: the same wall rescaled to the reference host speed
        self.ref_s = 0.0
        #: program steps (``decide`` calls) the harness saw in the phase
        self.steps = 0
        self._mark = 0.0
        self._probe_s = 0.0

    def start(self) -> None:
        self._probe_s = reference_loop()
        self._mark = _clock()

    def _close_segment(self, now: float) -> None:
        segment = now - self._mark
        before = self._probe_s
        self._probe_s = reference_loop()
        self.raw_s += segment
        self.ref_s += segment * REFERENCE_S * 2.0 / (before + self._probe_s)
        self._mark = _clock()

    def tick(self) -> None:
        now = _clock()
        if now - self._mark >= SEGMENT_S:
            self._close_segment(now)

    def stop(self) -> None:
        self._close_segment(_clock())

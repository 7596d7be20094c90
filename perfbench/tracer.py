"""Layer-boundary tracing for the benchmark's traced run.

The tracer wraps the public entry points of the program's layers from
outside (class attributes are swapped for the duration of a phase and
restored afterwards).  Cold boundaries -- a server run, a
``prepare_pair`` call, one replica-epoch -- are kept as spans
``(name, start, end, parent, self)``.  Hot boundaries -- ``decide`` and
oracle lookups, 10^5+ calls per run -- fold into per-name aggregates
(count, total, self time and a fixed-bin histogram), so memory stays
bounded however long the run.  Self time is a call's duration minus the
part its traced children cover.  Everything stays in memory until the
run serializes it (:meth:`Tracer.to_dict`) once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Optional

_now = time.perf_counter_ns

#: Sub-bins per power of two: bins are 1/8-octave wide (about 9%).
_SUB_BITS = 3

#: Memo-hit lookups kept per hit class for untraced replay.
HIT_SAMPLES = 64


def _bin(ns: int) -> int:
    bits = ns.bit_length()
    if bits <= _SUB_BITS + 1:
        return ns
    sub = (ns >> (bits - _SUB_BITS - 1)) & ((1 << _SUB_BITS) - 1)
    return (bits << _SUB_BITS) + sub + 64


def _bin_mid_ns(index: int) -> float:
    """Midpoint of the value range a bin covers."""
    if index < 64:
        return float(index)
    index -= 64
    bits, sub = index >> _SUB_BITS, index & ((1 << _SUB_BITS) - 1)
    shift = bits - _SUB_BITS - 1
    low = ((1 << _SUB_BITS) + sub) << shift
    return low + (1 << shift) / 2.0


class Aggregate:
    """Folded statistics of one hot boundary."""

    __slots__ = ("count", "total_ns", "self_ns", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.bins: dict = {}

    def add(self, total_ns: int, self_ns: int) -> None:
        self.count += 1
        self.total_ns += total_ns
        self.self_ns += self_ns
        index = _bin(total_ns)
        self.bins[index] = self.bins.get(index, 0) + 1

    def quantile_ns(self, q: float) -> float:
        """Bin-midpoint estimate of the q-quantile of call durations."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index in sorted(self.bins):
            seen += self.bins[index]
            if seen >= rank:
                return _bin_mid_ns(index)
        return _bin_mid_ns(max(self.bins))

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "p50_ns": self.quantile_ns(0.50),
            "p99_ns": self.quantile_ns(0.99),
        }


class Tracer:
    """Spans, hot aggregates and counters of one traced phase."""

    def __init__(self) -> None:
        #: cold spans: (name, start_ns, end_ns, parent index, self_ns)
        self.spans: list = []
        self.hot: dict = {}
        self.counts: dict = {}
        self._stack: list = []
        self._patches: list = []
        #: nesting depth of oracle lookups (only depth 0 is classified)
        self.oracle_depth = 0
        #: memo-hit lookups kept for replay, per hit class:
        #: (oracle, method name, args, kwargs), at most HIT_SAMPLES each
        self.hit_samples: dict = {}

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def fold(self, name: str, total_ns: int, self_ns: int) -> None:
        agg = self.hot.get(name)
        if agg is None:
            agg = self.hot[name] = Aggregate()
        agg.add(total_ns, self_ns)

    @contextmanager
    def span(self, name: str):
        """A cold span around a block of the benchmark's own code."""
        parent = self._stack[-1][1] if self._stack else -1
        frame = [0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(frame)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += end - start
            self.spans[frame[1]] = (
                name, start, end, parent, end - start - frame[0]
            )

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def hot_wrap(self, name: str, fn: Callable,
                 after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` as a hot boundary; ``after(result)`` sees results."""
        stack = self._stack
        fold = self.fold

        def wrapper(*args, **kwargs):
            frame = [0, -1]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                fold(name, elapsed, elapsed - frame[0])
            if after is not None:
                after(result)
            return result

        return wrapper

    def oracle_wrap(self, name: str, fn: Callable,
                    hit_kind: Optional[str]) -> Callable:
        """Wrap one ``DurationOracle`` method.

        Outermost lookups also fold the oracle's public counters, count
        the lookups that ran the simulator (misses rose) with their wall
        time, and keep the first memo hits of ``hit_kind`` (solo or
        co-run) so :func:`hit_cost_ns` can time them without the tracer.
        """
        stack = self._stack
        tracer = self
        method = name.rsplit(".", 1)[-1]

        def wrapper(oracle, *args, **kwargs):
            depth = tracer.oracle_depth
            hits = oracle.hits
            misses = oracle.misses
            persisted = oracle.persistent_hits
            frame = [0, -1]
            stack.append(frame)
            tracer.oracle_depth = depth + 1
            start = _now()
            try:
                return fn(oracle, *args, **kwargs)
            finally:
                elapsed = _now() - start
                tracer.oracle_depth = depth
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.fold(name, elapsed, elapsed - frame[0])
                if depth == 0:
                    tracer.count("oracle.hits", oracle.hits - hits)
                    tracer.count("oracle.misses", oracle.misses - misses)
                    tracer.count(
                        "oracle.persistent_hits",
                        oracle.persistent_hits - persisted,
                    )
                    if oracle.misses != misses:
                        tracer.count("gpusim.simulations")
                        tracer.count("gpusim.busy_ns", elapsed)
                    elif (hit_kind is not None
                          and oracle.persistent_hits == persisted):
                        tracer.count(f"hit.{hit_kind}")
                        kept = tracer.hit_samples.setdefault(hit_kind, [])
                        if len(kept) < HIT_SAMPLES:
                            kept.append((oracle, method, args, kwargs))

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` until :meth:`unpatch`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------------

    def self_ns(self, prefix: str) -> int:
        """Summed self time of every hot aggregate named ``prefix...``."""
        return sum(
            agg.self_ns for name, agg in self.hot.items()
            if name.startswith(prefix)
        )

    def span_walls_ns(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s and s[0] == name]

    def span_self_ns(self, name: str) -> int:
        return sum(s[4] for s in self.spans if s and s[0] == name)

    def hit_cost_ns(self, kind: str, owner, repeats: int = 200) -> float:
        """Mean wall cost of one memo hit of ``kind``, tracer removed.

        Replays the kept lookups against their (now warm) oracles through
        the unwrapped methods of ``owner``; 0.0 when none were kept.
        """
        kept = self.hit_samples.get(kind)
        if not kept:
            return 0.0
        calls = [(getattr(owner, method), oracle, args, kwargs)
                 for oracle, method, args, kwargs in kept]
        start = _now()
        for _ in range(repeats):
            for fn, oracle, args, kwargs in calls:
                fn(oracle, *args, **kwargs)
        return (_now() - start) / (repeats * len(calls))

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"name": s[0], "start_ns": s[1], "end_ns": s[2],
                 "parent": s[3], "self_ns": s[4]}
                for s in self.spans if s
            ],
            "aggregates": {k: v.to_dict() for k, v in sorted(self.hot.items())},
            "counts": dict(sorted(self.counts.items())),
        }

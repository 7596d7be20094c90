"""QoS headroom accounting (Eqs. 7 and 9).

A query ``Q`` meets its QoS target iff

    T_queue + T_lc + T_fuse + T_be  <=  T_qos                      (Eq. 7)

so the *headroom* — GPU time the scheduler may hand to best-effort work
while ``Q`` is in flight — is what remains of the target after the time
already spent and the query's own predicted remaining work.  With
several active queries, each earlier query's remaining GPU time is also
reserved (Eq. 9), and the binding constraint is the minimum slack over
all of them: serving FIFO, query ``i`` can only finish after every
earlier query's remaining kernels.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..errors import SchedulingError
from .query import KernelInstance, Query

#: Predicted duration of one kernel instance, in milliseconds.
Predictor = Callable[[KernelInstance], float]

#: lazily bound ReservationEntry (avoids a per-call import in
#: ``headroom_detail`` and an import cycle at module load)
_ReservationEntry = None


def reservation_slack_ms(
    qos_ms: float,
    now_ms: float,
    inflight: Sequence[tuple[float, float, float]],
) -> float:
    """Eq. 9 slack over a replica's in-flight reservations.

    This is the dispatcher-side view of the same accounting
    :class:`HeadroomTracker` does inside a node: each routed query is a
    ``(arrival_ms, service_ms, finish_estimate_ms)`` triple, its
    remaining reserved time is the unelapsed part of its estimate, and
    the binding constraint is the minimum FIFO slack.  Returns ``+inf``
    for an idle replica.
    """
    if qos_ms <= 0:
        raise SchedulingError("QoS target must be positive")
    slack = float("inf")
    reserved_ahead = 0.0
    for arrival_ms, service_ms, finish_ms in inflight:
        remaining = min(service_ms, max(0.0, finish_ms - now_ms))
        if remaining <= 0.0:
            continue
        elapsed = now_ms - arrival_ms
        slack = min(slack, qos_ms - elapsed - reserved_ahead - remaining)
        reserved_ahead += remaining
    return slack


def _reservation_entry():
    global _ReservationEntry
    if _ReservationEntry is None:
        from ..telemetry.decisions import ReservationEntry
        _ReservationEntry = ReservationEntry
    return _ReservationEntry


class HeadroomTracker:
    """Computes the schedulable BE headroom at a point in time."""

    def __init__(self, qos_ms: float, predictor: Predictor,
                 version: Optional[Callable[[], int]] = None):
        if qos_ms <= 0:
            raise SchedulingError("QoS target must be positive")
        self.qos_ms = qos_ms
        self._predict = predictor
        # Suffix sums of predicted durations per kernel sequence.  The
        # key covers every (kernel, grid) in the sequence — not just the
        # endpoints — so two services sharing model name, length, and
        # first/last kernels never alias each other's sums.
        self._suffix: dict[str, list[float]] = {}
        # The predictor's model-version counter.  Whenever it advances
        # (the online >10%-error retrain path, or a bundle load), every
        # cached suffix sum is stale and must be rebuilt.
        self._version = version
        self._version_seen = version() if version is not None else 0
        # Identity of the current suffix table: each query pins its
        # suffix next to this token, so a stale pin is one ``is`` away.
        self._token = object()

    def invalidate(self) -> None:
        """Drop all cached suffix sums (call after any model refresh)."""
        self._suffix.clear()
        self._token = object()

    def _sync_version(self) -> None:
        if self._version is None:
            return
        current = self._version()
        if current != self._version_seen:
            self._version_seen = current
            self.invalidate()

    def predicted_remaining_ms(self, query: Query) -> float:
        """LR-predicted GPU time of a query's unexecuted kernels.

        The suffix is shared by every query with the same kernel
        sequence and pinned to each query on first use, so a repeat
        lookup is a read at the query's cursor.
        """
        self._sync_version()
        pin = query._remaining_pin
        if pin is None or pin[0] is not self._token:
            pin = query._remaining_pin = (self._token, self._suffix_of(query))
        return pin[1][query._cursor]

    def _suffix_of(self, query: Query) -> list[float]:
        key = query.sequence_key
        suffix = self._suffix.get(key)
        if suffix is None:
            suffix = [0.0]
            for instance in reversed(query.instances):
                suffix.append(suffix[-1] + self._predict(instance))
            suffix.reverse()
            self._suffix[key] = suffix
        return suffix

    def headroom_ms(self, now_ms: float, active: Sequence[Query]) -> float:
        """BE headroom given the FIFO set of active queries (Eq. 9).

        Returns ``+inf`` when no query is active (pure best-effort
        periods are unconstrained) and can go negative when a query is
        already doomed — the scheduler then launches LC kernels back to
        back ("If the Thr of the new query is close to 0, Tacker
        directly launches all the kernels").
        """
        if not active:
            return float("inf")
        slack = float("inf")
        reserved_ahead = 0.0
        for query in active:
            remaining = self.predicted_remaining_ms(query)
            elapsed = now_ms - query.arrival_ms
            slack = min(
                slack, self.qos_ms - elapsed - reserved_ahead - remaining
            )
            reserved_ahead += remaining
        return slack

    def headroom_and_reserved(
        self, now_ms: float, active: Sequence[Query],
        entries: Optional[list] = None,
    ) -> tuple[float, float]:
        """:meth:`headroom_ms` and the total reserved time, in one pass.

        The scheduler's table path: the same left-to-right Eq. 9 loop
        with the same expression order, reading each query's pinned
        suffix with one version check for the whole pass.  The total
        equals ``sum(predicted_remaining_ms(q) for q in active)``
        (``0 + x == x``).  With ``entries``, one
        :class:`repro.telemetry.ReservationEntry` per query is appended
        to it, as :meth:`headroom_detail` builds them.
        """
        self._sync_version()
        token = self._token
        qos_ms = self.qos_ms
        slack = float("inf")
        reserved_ahead = 0.0
        for query in active:
            pin = query._remaining_pin
            if pin is None or pin[0] is not token:
                pin = query._remaining_pin = (token, self._suffix_of(query))
            remaining = pin[1][query._cursor]
            elapsed = now_ms - query.arrival_ms
            own = qos_ms - elapsed - reserved_ahead - remaining
            if entries is not None:
                entries.append(_reservation_entry()(
                    service=query.model.name,
                    arrival_ms=query.arrival_ms,
                    elapsed_ms=elapsed,
                    remaining_ms=remaining,
                    reserved_ahead_ms=reserved_ahead,
                    slack_ms=own,
                ))
            if own < slack:  # min(slack, own), ties keep slack
                slack = own
            reserved_ahead += remaining
        return slack, reserved_ahead

    def headroom_detail(
        self, now_ms: float, active: Sequence[Query]
    ) -> tuple[float, tuple]:
        """:meth:`headroom_ms` plus the per-query Eq. 9 math.

        Returns ``(headroom, entries)`` where each entry is a
        :class:`repro.telemetry.ReservationEntry` — the elapsed time,
        predicted remaining work, reserved time ahead and resulting
        slack for one active query.  With :meth:`headroom_ms`, this is
        the reference twin's Eq. 9; the scheduler's table path uses
        :meth:`headroom_and_reserved`.
        """
        ReservationEntry = _reservation_entry()
        slack = float("inf")
        reserved_ahead = 0.0
        entries = []
        for query in active:
            remaining = self.predicted_remaining_ms(query)
            elapsed = now_ms - query.arrival_ms
            own = self.qos_ms - elapsed - reserved_ahead - remaining
            entries.append(ReservationEntry(
                service=query.model.name,
                arrival_ms=query.arrival_ms,
                elapsed_ms=elapsed,
                remaining_ms=remaining,
                reserved_ahead_ms=reserved_ahead,
                slack_ms=own,
            ))
            slack = min(slack, own)
            reserved_ahead += remaining
        return slack, tuple(entries)

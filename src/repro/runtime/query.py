"""Queries and best-effort kernel streams.

An LC *query* executes its model's kernel sequence in order; the query's
latency is the interval from arrival to its last kernel's completion
(Section VII-A).  A *BE application* is an endless stream of kernels
(Parboil kernels repeat one launch; training jobs repeat an iteration
sequence); the runtime may run the stream's head kernel whenever QoS
headroom allows, or fuse it with an LC kernel.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..errors import SchedulingError
from ..kernels.ir import KernelIR
from ..models.zoo import ModelSpec


@dataclass(frozen=True)
class KernelInstance:
    """One concrete kernel execution request."""

    kernel: KernelIR
    grid: int
    fusable: bool = True

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def kind(self) -> str:
        return self.kernel.kind


class Query:
    """One in-flight LC query: a cursor over its model's kernels."""

    _ids = itertools.count()

    def __init__(self, model: ModelSpec, arrival_ms: float,
                 instances: tuple[KernelInstance, ...],
                 penalty_ms: float = 0.0):
        self.qid = next(Query._ids)
        self.model = model
        self.arrival_ms = arrival_ms
        #: latency already accrued before this server saw the query — a
        #: query re-routed off a crashed replica keeps the time it spent
        #: waiting there, so hand-offs cannot launder tail latency
        self.penalty_ms = penalty_ms
        self.instances = instances
        self._cursor = 0
        self._sequence_key: Optional[str] = None
        self.finish_ms: Optional[float] = None
        #: cursor-indexed suffixes the scheduler pins to the query:
        #: ``(owner token, suffix)`` for the Eq. 9 predicted remaining
        #: time and ``(owner token, BE names, suffix)`` for the fusion
        #: reserve.  The token changes whenever the owner's tables are
        #: rebuilt (model refit), which invalidates the pin.
        self._remaining_pin: Optional[tuple] = None
        self._reserve_pin: Optional[tuple] = None

    def __getstate__(self) -> dict:
        # The pins are caches owned by one server's scheduler: a pickled
        # query (a fleet hand-off, a worker result) must not drag them
        # along.
        state = dict(self.__dict__)
        state["_remaining_pin"] = None
        state["_reserve_pin"] = None
        return state

    @property
    def cursor(self) -> int:
        """Index of the next kernel to execute."""
        return self._cursor

    @property
    def sequence_key(self) -> str:
        """Collision-free cache key over the full kernel sequence.

        Two services can share model name, sequence length, and
        first/last kernels while differing in the middle, so any key
        that elides interior instances aliases their cached suffix
        sums.  Grids matter too: they change predicted durations.

        A string rather than a tuple of pairs: strings cache their
        hash, so the headroom tracker's per-step cache lookups hash
        the sequence once per query instead of once per call.
        """
        if self._sequence_key is None:
            self._sequence_key = ";".join(
                f"{instance.name}@{instance.grid}"
                for instance in self.instances
            )
        return self._sequence_key

    @property
    def done(self) -> bool:
        return self._cursor >= len(self.instances)

    @property
    def current(self) -> KernelInstance:
        if self.done:
            raise SchedulingError(f"query {self.qid} has no pending kernels")
        return self.instances[self._cursor]

    @property
    def remaining(self) -> tuple[KernelInstance, ...]:
        return self.instances[self._cursor:]

    def advance(self, now_ms: float) -> bool:
        """Mark the current kernel complete; True when it was the last."""
        if self._cursor >= len(self.instances):
            raise SchedulingError(f"query {self.qid} already complete")
        self._cursor += 1
        if self._cursor < len(self.instances):
            return False
        self.finish_ms = now_ms
        return True

    @property
    def latency_ms(self) -> float:
        if self.finish_ms is None:
            raise SchedulingError(f"query {self.qid} has not finished")
        return self.finish_ms - self.arrival_ms + self.penalty_ms


@dataclass
class BEApplication:
    """A best-effort application: an endless cyclic kernel stream.

    BE tasks have *random inputs* (Section VIII-C: "the opportune load
    ratio may not always be achieved due to the random inputs of BE
    tasks"), modelled by scaling each launch's grid by a factor drawn
    deterministically from ``input_scales``.  The scales are quantized
    so launch shapes repeat and stay memoizable.

    ``completed_work_ms`` accumulates the *solo* duration of every
    completed kernel — the progress metric behind Eq. 10's throughput
    comparison (a fused completion contributes the same work as a solo
    completion, in less GPU time).
    """

    name: str
    sequence: tuple[KernelInstance, ...]
    memory_intensive: bool = False
    input_scales: tuple[float, ...] = (1.0,)
    _cursor: int = 0
    completed_kernels: int = field(default=0)
    completed_work_ms: float = field(default=0.0)
    #: (cursor, instance) memo — ``head`` is consulted many times per
    #: scheduling step and the input-scale digest is pure in the cursor
    _head_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.sequence:
            raise SchedulingError(f"BE app {self.name} has no kernels")
        if not self.input_scales:
            raise SchedulingError(f"BE app {self.name} has no input scales")

    def _scale_at(self, cursor: int) -> float:
        digest = hashlib.sha256(
            f"be-input:{self.name}:{cursor}".encode()
        ).digest()
        return self.input_scales[
            int.from_bytes(digest[:4], "big") % len(self.input_scales)
        ]

    @property
    def head(self) -> KernelInstance:
        """The next kernel the stream wants to run (input-scaled)."""
        cached = self._head_cache
        if cached is not None and cached[0] == self._cursor:
            return cached[1]
        base = self.sequence[self._cursor % len(self.sequence)]
        scale = self._scale_at(self._cursor)
        if scale == 1.0:
            instance = base
        else:
            instance = KernelInstance(
                kernel=base.kernel,
                grid=max(1, round(base.grid * scale)),
                fusable=base.fusable,
            )
        self._head_cache = (self._cursor, instance)
        return instance

    def complete_head(self, solo_work_ms: float) -> None:
        """Retire the head kernel, crediting its solo-duration work."""
        self._cursor += 1
        self.completed_kernels += 1
        self.completed_work_ms += solo_work_ms

"""Correctness checks and failure accounting for the benchmark.

A serve's simulated outputs are deterministic for a given trace: every
repeat of a run, and the traced run, must reproduce them bit for bit.
Each serve is checked for query conservation and compared field by
field with the run's reference serve; a serve that fails any check, or
raises, counts all of its queries as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

#: Simulated results every serve reports (all deterministic per trace).
SIM_FIELDS = (
    "sim_p99_ms", "sim_be_throughput", "qos_met_pct", "sim_node_seconds",
    "node_epochs",
)


def digest(payload) -> str:
    """Short hash of a JSON-able payload (floats at full repr precision)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outcome:
    """The simulated outputs of one serve, reduced to what is checked."""

    trace_queries: int
    served: int
    sim: dict
    #: counters every serve of the trace repeats (launches, alerts...)
    counters: dict = field(default_factory=dict)
    #: work counters that also depend on what earlier serves cached
    #: (oracle lookups, simulator launches); equal across timed serves
    work: dict = field(default_factory=dict)
    #: hash of the full simulated summary the program returned
    summary_digest: str = ""

    @property
    def digest(self) -> str:
        return digest([self.trace_queries, self.served, self.sim,
                       self.counters, self.summary_digest])


def problems(outcome: Outcome, reference: "Outcome | None" = None,
             work_reference: "Outcome | None" = None) -> list:
    """Everything wrong with one serve (empty when it is correct).

    ``reference`` is the run's first serve of the same trace;
    ``work_reference`` an earlier serve that ran on the same cache
    state, whose work counters must repeat exactly.
    """
    found = []
    if outcome.served != outcome.trace_queries:
        found.append(
            f"query conservation: served {outcome.served} of "
            f"{outcome.trace_queries} trace queries"
        )
    for name in SIM_FIELDS:
        value = outcome.sim.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"{name} is not a finite number: {value!r}")
        elif value <= 0:
            found.append(f"{name} is not positive: {value!r}")
    if reference is None:
        return found
    for name in SIM_FIELDS:
        if outcome.sim.get(name) != reference.sim.get(name):
            found.append(
                f"{name} differs from the reference serve: "
                f"{outcome.sim.get(name)!r} != {reference.sim.get(name)!r}"
            )
    for name in sorted(set(outcome.counters) & set(reference.counters)):
        if outcome.counters[name] != reference.counters[name]:
            found.append(
                f"counter {name} differs from the reference serve: "
                f"{outcome.counters[name]} != {reference.counters[name]}"
            )
    if outcome.summary_digest != reference.summary_digest:
        found.append("simulated summary differs from the reference serve")
    if work_reference is not None and outcome.work != work_reference.work:
        found.append(
            f"work counters differ between repeats: {outcome.work} != "
            f"{work_reference.work}"
        )
    return found


class Ledger:
    """Queries attempted and failed across every serve of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def check(self, label: str, outcome: Outcome,
              reference: "Outcome | None" = None,
              work_reference: "Outcome | None" = None) -> bool:
        self.attempted += outcome.trace_queries
        found = problems(outcome, reference, work_reference)
        if found:
            self.failed += outcome.trace_queries
            self.errors.extend(f"{label}: {text}" for text in found)
        return not found

    def crashed(self, label: str, trace_queries: int, error: str) -> None:
        self.attempted += trace_queries
        self.failed += trace_queries
        self.errors.append(f"{label}: raised {error}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

"""The non-preemptive co-location engine.

Plays a scheduling policy forward over a Poisson query trace and an
always-backlogged set of BE applications, on a GPU that runs exactly one
kernel at a time (the non-preemptive premise of the paper — and of the
false-high-utilization problem).  Produces per-query latencies, BE
progress, and the two core types' active timelines (the signal behind
Figs. 1, 2 and 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .. import audit, telemetry
from ..config import GPUConfig
from ..errors import SchedulingError
from ..gpusim.trace import Timeline
from ..telemetry import RunTelemetry
from ..telemetry.slo import SLOMonitor
from .faults import FaultInjector
from .oracle import DurationOracle
from .policies import Action, SchedulerPolicy
from .query import BEApplication, Query
from .runconfig import DEFAULT_RUN_CONFIG, RunConfig, warn_legacy_knobs


@dataclass
class ExecutedKernel:
    """One executed launch, for fine-grained trace consumers (Fig. 15)."""

    start_ms: float
    end_ms: float
    kind: str       # "lc" | "be" | "fused" | "hfused" | "spatial" | "chain"
    name: str
    tc_end_ms: float
    cd_end_ms: float
    #: owning service: the LC model for "lc"/"fused" launches (a fused
    #: launch is charged to the query it carries), the BE app for "be"
    service: str = ""


@dataclass
class ServerResult:
    """Outcome of one co-location run."""

    qos_ms: float
    horizon_ms: float
    end_ms: float
    latencies_ms: list[float]
    be_work_ms: dict[str, float]
    tc_timeline: Timeline
    cd_timeline: Timeline
    #: when the first kernel was launched; the run's busy window is
    #: ``[start_ms, end_ms]``, which metrics normalize against
    start_ms: float = 0.0
    n_lc_kernels: int = 0
    n_be_kernels: int = 0
    n_fused_kernels: int = 0
    #: zoo-policy launches: horizontally-fused BE pairs, SM-partitioned
    #: spatial co-runs, and >2-kernel fusion chains
    n_hfused_kernels: int = 0
    n_spatial_kernels: int = 0
    n_chain_kernels: int = 0
    executed: list[ExecutedKernel] = field(default_factory=list)
    #: per-LC-service latencies (useful under multi-tenant runs)
    latencies_by_model: dict[str, list[float]] = field(default_factory=dict)
    #: BE launches refused by admission control: shed (no Eq. 9 headroom
    #: left at all) and deferred (headroom below the admission margin)
    n_shed_be: int = 0
    n_deferred_be: int = 0
    #: injected BE completion faults that a run endured
    n_dropped_be: int = 0
    n_delayed_be: int = 0
    #: scheduling decisions per guard mode ({} when unguarded)
    guard_mode_decisions: dict[str, int] = field(default_factory=dict)
    #: fault-injector event counters ({} when fault-free)
    fault_events: dict[str, int] = field(default_factory=dict)
    #: the run's telemetry session (None when telemetry was off)
    telemetry: Optional[RunTelemetry] = None
    #: fired SLO alerts, as plain dicts ([] when no monitor attached)
    alerts: list = field(default_factory=list)

    def p99_by_model(self) -> dict[str, float]:
        """99th-percentile latency per LC service."""
        return {
            name: float(np.percentile(values, 99))
            for name, values in self.latencies_by_model.items()
        }

    @property
    def total_be_work_ms(self) -> float:
        return sum(self.be_work_ms.values())

    @property
    def be_throughput(self) -> float:
        """BE work completed per wall millisecond within the horizon."""
        if self.horizon_ms <= 0:
            raise SchedulingError("horizon must be positive")
        return self.total_be_work_ms / self.horizon_ms

    @property
    def mean_latency_ms(self) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.mean(self.latencies_ms))

    @property
    def p99_latency_ms(self) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(self.latencies_ms, 99))

    @property
    def qos_violation_rate(self) -> float:
        if not self.latencies_ms:
            return float("nan")
        violations = sum(1 for l in self.latencies_ms if l > self.qos_ms)
        return violations / len(self.latencies_ms)

    @property
    def qos_satisfied(self) -> bool:
        """The paper's criterion: the 99th percentile meets the target."""
        return self.p99_latency_ms <= self.qos_ms * 1.0001

    # -- event hooks ----------------------------------------------------------
    #
    # The server mutates its result only through these three methods, so
    # a constant-memory fold (``repro.runtime.replay.StreamingResult``)
    # can substitute incremental accumulators for the per-query lists by
    # overriding them — the scheduling loop itself is shared verbatim.

    def note_kernel(
        self, start: float, end: float, kind: str, name: str,
        tc_end: float, cd_end: float, service: str, keep: bool,
    ) -> None:
        """Record one executed launch (timelines + optional trace row)."""
        if tc_end > start:
            self.tc_timeline.add(start, tc_end)
        if cd_end > start:
            self.cd_timeline.add(start, cd_end)
        if keep:
            self.executed.append(
                ExecutedKernel(start, end, kind, name, tc_end, cd_end,
                               service)
            )

    def note_query_latency(
        self, model_name: str, latency_ms: float,
        end_ms: Optional[float] = None,
    ) -> None:
        """Record one completed LC query's end-to-end latency.

        ``end_ms`` (the completion instant) feeds time-windowed folds
        (see :class:`repro.runtime.replay.StreamingResult`); the
        list-based result has no use for it.
        """
        self.latencies_ms.append(latency_ms)
        self.latencies_by_model.setdefault(model_name, []).append(latency_ms)

    def note_be_credit(self, app_name: str, solo_ms: float,
                       end_ms: float) -> None:
        """Credit one retired BE kernel's work (within the horizon)."""
        if end_ms <= self.horizon_ms:
            self.be_work_ms[app_name] += solo_ms


class ColocationServer:
    """Executes a policy over one query trace."""

    def __init__(
        self,
        gpu: GPUConfig,
        *,
        oracle: DurationOracle,
        policy: SchedulerPolicy,
        config: Optional[RunConfig] = None,
        qos_ms: Optional[float] = None,
        record_kernels: bool = False,
        faults: Optional[FaultInjector] = None,
        audit_run: Optional[bool] = None,
        telemetry_run: Optional[bool] = None,
        monitor: Optional[SLOMonitor] = None,
        metric_labels: Optional[dict] = None,
    ):
        if qos_ms is not None:
            warn_legacy_knobs("ColocationServer", ("qos_ms",))
        self.config = (config or DEFAULT_RUN_CONFIG).with_overrides(
            qos_ms=qos_ms
        )
        self.gpu = gpu
        self.oracle = oracle
        self.policy = policy
        self.qos_ms = self.config.qos_ms
        self.record_kernels = record_kernels
        #: injected faults for this run (None = the paper's happy path)
        self.faults = faults
        #: invariant auditing: True/False overrides, None follows the
        #: process-wide switch (see :mod:`repro.audit`)
        self.audit_run = audit_run
        self._auditor: Optional[audit.ServerAuditor] = None
        #: telemetry collection: True/False overrides, None follows the
        #: run config and the process-wide switch (:mod:`repro.telemetry`)
        self.telemetry_run = telemetry_run
        self._telemetry: Optional[RunTelemetry] = None
        #: online SLO monitor (observe-only; None = unmonitored run)
        self.monitor = monitor
        #: extra label values stamped on every metric family the run's
        #: telemetry session publishes (e.g. ``{"node": "node2"}``)
        self.metric_labels = dict(metric_labels or {})
        self._guard_seen = 0
        #: (sequence key, cursor) -> ground-truth remaining GPU time;
        #: the oracle's solo durations are fixed for one server
        self._true_remaining: dict[tuple[str, int], float] = {}

    def run(
        self,
        queries: Sequence[Query],
        be_apps: Sequence[BEApplication],
        horizon_ms: Optional[float] = None,
    ) -> ServerResult:
        """Run until every query completes.

        BE work is credited only for completions within the horizon
        (default: last arrival + QoS target), so throughput comparisons
        between policies cover identical wall-clock windows.

        An empty trace is allowed only with an explicit ``horizon_ms``
        (a replica that received no routed LC traffic): the server then
        drains the BE streams until the horizon.
        """
        if not queries and horizon_ms is None:
            raise SchedulingError("need at least one query")
        pending = sorted(queries, key=lambda q: q.arrival_ms)
        if horizon_ms is None:
            horizon_ms = pending[-1].arrival_ms + self.qos_ms
        result = ServerResult(
            qos_ms=self.qos_ms,
            horizon_ms=horizon_ms,
            end_ms=0.0,
            latencies_ms=[],
            be_work_ms={app.name: 0.0 for app in be_apps},
            tc_timeline=Timeline(),
            cd_timeline=Timeline(),
        )
        return self.serve(iter(pending), be_apps, result)

    def run_stream(
        self,
        queries: "Iterator[Query] | Iterable[Query]",
        be_apps: Sequence[BEApplication],
        horizon_ms: float,
        result: Optional[ServerResult] = None,
    ) -> ServerResult:
        """Serve a *time-sorted query stream* without materializing it.

        The constant-memory twin of :meth:`run`: ``queries`` is
        consumed lazily (one-element lookahead), so a 10^6–10^7-query
        replay holds only the in-flight queries in memory — provided
        ``result`` folds incrementally too (see
        :class:`repro.runtime.replay.StreamingResult`).  The horizon
        must be explicit because the last arrival is unknown up front.

        BE work is credited exactly as in :meth:`run`; with the default
        ``result=None`` a list-based :class:`ServerResult` is used,
        which keeps per-query state and is *not* constant-memory.
        """
        if horizon_ms <= 0:
            raise SchedulingError("run_stream needs a positive horizon")
        if result is None:
            result = ServerResult(
                qos_ms=self.qos_ms,
                horizon_ms=horizon_ms,
                end_ms=0.0,
                latencies_ms=[],
                be_work_ms={app.name: 0.0 for app in be_apps},
                tc_timeline=Timeline(),
                cd_timeline=Timeline(),
            )
        return self.serve(iter(queries), be_apps, result)

    def serve(
        self,
        queries: "Iterator[Query]",
        be_apps: Sequence[BEApplication],
        result: ServerResult,
    ) -> ServerResult:
        """The scheduling loop shared by :meth:`run` and :meth:`run_stream`.

        ``queries`` must yield queries in arrival order; only a
        one-element lookahead is held, so the iterator may be lazy.
        """
        horizon_ms = result.horizon_ms
        auditing = (
            self.audit_run if self.audit_run is not None else audit.active()
        )
        self._auditor = (
            audit.ServerAuditor(self.policy, self.qos_ms, horizon_ms)
            if auditing else None
        )
        tracing = (
            self.telemetry_run
            if self.telemetry_run is not None
            else (self.config.telemetry or telemetry.active())
        )
        self._telemetry = (
            RunTelemetry(
                policy=self.policy.policy_name,
                scenario=self.config.scenario,
                extra_labels=dict(self.metric_labels),
            )
            if tracing else None
        )
        self.policy.telemetry = self._telemetry
        guard = self.policy.guard
        self._guard_seen = len(guard.transitions) if guard is not None else 0
        now = 0.0
        start_ms: Optional[float] = None
        active: list[Query] = []
        next_query = next(queries, None)
        saw_query = next_query is not None

        while True:
            while next_query is not None and next_query.arrival_ms <= now:
                active.append(next_query)
                next_query = next(queries, None)

            if self._auditor is None:
                action = self.policy.decide(now, active, be_apps)
            else:
                action = self._auditor.decide(now, active, be_apps)
            if action is None:
                if next_query is not None:
                    now = next_query.arrival_ms
                    continue
                break

            action = self._admit(action, now, active, result)
            if self._auditor is not None:
                self._auditor.on_action(now, action, active)
            if start_ms is None:
                start_ms = now
            now = self._execute(action, now, active, result)

            if not active and next_query is None:
                if not saw_query and now < horizon_ms:
                    continue  # BE-only run: keep draining to the horizon
                break
        result.end_ms = now
        result.start_ms = start_ms if start_ms is not None else 0.0
        guard = self.policy.guard
        if guard is not None:
            result.guard_mode_decisions = dict(guard.mode_decisions)
        if self.faults is not None:
            result.fault_events = self.faults.counters()
        if self._auditor is not None:
            self._auditor.on_run_complete(result)
            self._auditor = None
        if self._telemetry is not None:
            session = self._telemetry
            session.publish_result(result, guard=guard)
            result.telemetry = session
            telemetry.merge_session(session, telemetry.registry())
            self.policy.telemetry = None
            self._telemetry = None
        return result

    # -- admission control ----------------------------------------------------

    def _true_remaining_ms(self, query: Query) -> float:
        """Ground-truth GPU time of a query's unexecuted kernels.

        Memoized per (kernel sequence, cursor); each value is the
        left-to-right sum over the remaining kernels.
        """
        key = (query.sequence_key, query._cursor)
        remaining = self._true_remaining.get(key)
        if remaining is None:
            remaining = self._true_remaining[key] = sum(
                self.oracle.solo_ms(inst.kernel, inst.grid)
                for inst in query.remaining
            )
        return remaining

    def true_headroom_ms(self, now: float, active: list[Query]) -> float:
        """Eq. 9 headroom computed from *actual* durations, not predictions.

        This is the server's own accounting of the reserved LC time: the
        measured history a deployment accumulates, which the simulator's
        oracle stands in for.  Under predictor faults it diverges from
        the policy's (predicted) headroom — that divergence is what
        admission control acts on.
        """
        slack = float("inf")
        reserved_ahead = 0.0
        internal_qos = self.policy.headroom.qos_ms
        for query in active:
            remaining = self._true_remaining_ms(query)
            elapsed = now - query.arrival_ms
            slack = min(
                slack, internal_qos - elapsed - reserved_ahead - remaining
            )
            reserved_ahead += remaining
        return slack

    def _admit(
        self,
        action: Action,
        now: float,
        active: list[Query],
        result: ServerResult,
    ) -> Action:
        """Overload admission control for direct BE launches.

        Only active for guarded policies.  When the ground-truth Eq. 9
        accounting says the reserved LC time leaves no headroom, a
        policy-approved BE launch is refused — *shed* when the slack is
        gone, *deferred* when it is merely below the admission margin —
        and the LC query runs instead.  The BE kernel stays at the head
        of its stream, so deferral is a reordering, not a loss.
        """
        guard = self.policy.guard
        if guard is None or action.kind != "be" or not active:
            return action
        slack = self.true_headroom_ms(now, active)
        if slack <= 0:
            result.n_shed_be += 1
            override = "shed"
        elif slack < guard.config.admission_margin_ms:
            result.n_deferred_be += 1
            override = "deferred"
        else:
            return action
        if self._telemetry is not None:
            self._telemetry.note_admission_override(override)
        if self.monitor is not None:
            self.monitor.note_admission(override, now)
        query = active[0]
        return Action(
            kind="lc", query=query,
            predicted_lc_ms=self.policy.predict_ms(query.current),
        )

    # -- execution ------------------------------------------------------------

    def _execute(
        self,
        action: Action,
        now: float,
        active: list[Query],
        result: ServerResult,
    ) -> float:
        if action.kind == "lc":
            return self._run_lc(action, now, active, result)
        if action.kind == "be":
            return self._run_be(action, now, result)
        if action.kind == "fused":
            return self._run_fused(action, now, active, result)
        if action.kind == "hfused":
            return self._run_hfused(action, now, result)
        if action.kind == "spatial":
            return self._run_spatial(action, now, active, result)
        if action.kind == "chain":
            return self._run_chain(action, now, active, result)
        raise SchedulingError(f"unknown action kind {action.kind!r}")

    def _finish_query_kernel(
        self, query: Query, end: float, active: list[Query],
        result: ServerResult,
    ) -> None:
        if not query.advance(end):
            return
        active.remove(query)
        latency = query.latency_ms
        result.note_query_latency(query.model.name, latency, end)
        self.policy.note_query_done(latency)
        if self._telemetry is not None:
            self._telemetry.note_query_complete(query, end)
        if self.monitor is not None:
            guard = self.policy.guard
            self.monitor.note_query(
                query.model.name, query.arrival_ms, latency,
                end,
                guard_mode=guard.mode if guard is not None else "fuse",
                guard_risk=guard.risk if guard is not None else 0.0,
                penalty_ms=getattr(query, "penalty_ms", 0.0),
            )
            self._sync_guard(end)

    def _note_outcome(
        self, kind: str, name: str, predicted: float, actual: float,
        end: float,
    ) -> None:
        """Feed one launch outcome to the policy and the SLO monitor."""
        self.policy.note_outcome(kind, name, predicted, actual)
        if self.monitor is not None:
            self.monitor.note_outcome(kind, name, predicted, actual, end)
            self._sync_guard(end)

    def _sync_guard(self, now: float) -> None:
        """Forward any new guard-ladder transitions to the monitor."""
        guard = self.policy.guard
        if guard is None or self.monitor is None:
            return
        transitions = guard.transitions
        risks = guard.transition_risks
        while self._guard_seen < len(transitions):
            index = self._guard_seen
            _, old_mode, new_mode = transitions[index]
            risk = risks[index] if index < len(risks) else 0.0
            self.monitor.note_guard(now, old_mode, new_mode, risk)
            self._guard_seen += 1

    def _record(self, result: ServerResult, start: float, end: float,
                kind: str, name: str, tc_end: float, cd_end: float,
                service: str = "") -> None:
        if self._auditor is not None:
            self._auditor.on_kernel(start, end, kind, name)
        result.note_kernel(start, end, kind, name, tc_end, cd_end, service,
                           self.record_kernels)

    def _run_lc(self, action, now, active, result) -> float:
        query = action.query
        cursor = query._cursor
        instance = query.instances[cursor]
        if cursor == 0 and self._telemetry is not None:
            self._telemetry.note_first_launch(query.qid, now)
        kernel = instance.kernel
        duration = self.oracle.solo_ms(kernel, instance.grid)
        end = now + duration
        tc_end = end if kernel.kind == "tc" else now
        cd_end = end if kernel.kind == "cd" else now
        self._record(result, now, end, "lc", kernel.name, tc_end, cd_end,
                     query.model.name)
        result.n_lc_kernels += 1
        self._note_outcome(
            "lc", kernel.name, action.predicted_lc_ms, duration, end
        )
        self._finish_query_kernel(query, end, active, result)
        return end

    def _run_be(self, action, now, result) -> float:
        app = action.be_app
        instance = app.head
        solo = self.oracle.solo_ms(instance.kernel, instance.grid)
        duration = solo
        dropped = False
        if self.faults is not None:
            duration, dropped = self.faults.be_outcome(solo)
            if dropped:
                result.n_dropped_be += 1
            if duration > solo:
                result.n_delayed_be += 1
        end = now + duration
        tc_end = end if instance.kind == "tc" else now
        cd_end = end if instance.kind == "cd" else now
        self._record(result, now, end, "be", instance.name, tc_end, cd_end,
                     app.name)
        result.n_be_kernels += 1
        self._note_outcome(
            "be", instance.name, action.predicted_be_ms, duration, end
        )
        if self.monitor is not None:
            if dropped:
                self.monitor.note_fault("be_drop", end, name=instance.name)
            if duration > solo:
                self.monitor.note_fault("be_delay", end, name=instance.name)
        if dropped:
            # The launch failed at completion: its GPU time is burned,
            # no work retires, and the stream must relaunch the kernel.
            return end
        app.complete_head(solo)
        if self._auditor is not None:
            self._auditor.on_be_retired(app.name, solo, end)
        result.note_be_credit(app.name, solo, end)
        return end

    def _run_fused(self, action, now, active, result) -> float:
        query = action.query
        app = action.be_app
        fused = action.fused
        lc_instance = query.current
        be_instance = app.head
        if self._telemetry is not None and query.cursor == 0:
            self._telemetry.note_first_launch(query.qid, now)
        if lc_instance.kind == "tc":
            tc_grid, cd_grid = lc_instance.grid, be_instance.grid
        else:
            tc_grid, cd_grid = be_instance.grid, lc_instance.grid
        corun = self.oracle.fused(fused, tc_grid, cd_grid)
        duration = self.gpu.cycles_to_ms(corun.duration_cycles)
        end = now + duration
        tc_end = now + self.gpu.cycles_to_ms(corun.finish_a_cycles)
        cd_end = now + self.gpu.cycles_to_ms(corun.finish_b_cycles)
        self._record(result, now, end, "fused", fused.name, tc_end, cd_end,
                     query.model.name)
        result.n_fused_kernels += 1
        self._note_outcome(
            "fused", fused.name, action.predicted_fused_ms, duration, end
        )

        # Online model maintenance (Section VI-C).
        self.policy.models.observe_fused(
            fused,
            self.gpu.ms_to_cycles(
                action.predicted_lc_ms
                if lc_instance.kind == "tc"
                else action.predicted_be_ms
            ),
            self.gpu.ms_to_cycles(
                action.predicted_be_ms
                if lc_instance.kind == "tc"
                else action.predicted_lc_ms
            ),
            corun.duration_cycles,
        )

        be_solo = self.oracle.solo_ms(be_instance.kernel, be_instance.grid)
        app.complete_head(be_solo)
        if self._auditor is not None:
            self._auditor.on_be_retired(app.name, be_solo, end)
        result.note_be_credit(app.name, be_solo, end)
        self._finish_query_kernel(query, end, active, result)
        return end

    def _retire_be_head(self, app, result, end: float) -> None:
        """Retire one BE stream's head, crediting its solo work."""
        instance = app.head
        solo = self.oracle.solo_ms(instance.kernel, instance.grid)
        app.complete_head(solo)
        if self._auditor is not None:
            self._auditor.on_be_retired(app.name, solo, end)
        result.note_be_credit(app.name, solo, end)

    def _corun_profile(self, action: Action):
        """Replay the profiled co-run recipe a zoo action carries.

        The oracle memoizes (and persists) the record, so this is the
        same table lookup the policy made at decision time — predicted
        and served durations agree by construction.
        """
        policy_name, launch_a, launch_b, params = action.corun
        return self.oracle.corun_policy(
            policy_name, launch_a, launch_b, **dict(params)
        )

    def _run_hfused(self, action, now, result) -> float:
        """One launch horizontally fusing two BE streams' heads."""
        app_a, app_b = action.be_app, action.be_app2
        inst_a, inst_b = app_a.head, app_b.head
        corun = self._corun_profile(action)
        duration = self.gpu.cycles_to_ms(corun.duration_cycles)
        end = now + duration
        finish_a = now + self.gpu.cycles_to_ms(corun.finish_a_cycles)
        finish_b = now + self.gpu.cycles_to_ms(corun.finish_b_cycles)
        tc_end = max(
            [now]
            + [f for inst, f in ((inst_a, finish_a), (inst_b, finish_b))
               if inst.kind == "tc"]
        )
        cd_end = max(
            [now]
            + [f for inst, f in ((inst_a, finish_a), (inst_b, finish_b))
               if inst.kind == "cd"]
        )
        name = f"{inst_a.name}+{inst_b.name}"
        self._record(result, now, end, "hfused", name, tc_end, cd_end,
                     app_a.name)
        result.n_hfused_kernels += 1
        self._note_outcome(
            "hfused", name, action.predicted_fused_ms, duration, end
        )
        self._retire_be_head(app_a, result, end)
        self._retire_be_head(app_b, result, end)
        return end

    def _run_spatial(self, action, now, active, result) -> float:
        """The LC kernel and a BE head on disjoint SM partitions."""
        query = action.query
        app = action.be_app
        lc_instance = query.current
        be_instance = app.head
        if self._telemetry is not None and query.cursor == 0:
            self._telemetry.note_first_launch(query.qid, now)
        corun = self._corun_profile(action)
        duration = self.gpu.cycles_to_ms(corun.duration_cycles)
        end = now + duration
        lc_end = now + self.gpu.cycles_to_ms(corun.finish_a_cycles)
        be_end = now + self.gpu.cycles_to_ms(corun.finish_b_cycles)
        tc_end = max(
            [now]
            + [f for inst, f in ((lc_instance, lc_end), (be_instance, be_end))
               if inst.kind == "tc"]
        )
        cd_end = max(
            [now]
            + [f for inst, f in ((lc_instance, lc_end), (be_instance, be_end))
               if inst.kind == "cd"]
        )
        name = f"{lc_instance.name}|{be_instance.name}"
        self._record(result, now, end, "spatial", name, tc_end, cd_end,
                     query.model.name)
        result.n_spatial_kernels += 1
        self._note_outcome(
            "spatial", name, action.predicted_fused_ms, duration, end
        )
        self._retire_be_head(app, result, end)
        # The LC kernel finishes at its own partition's finish time,
        # though the GPU stays busy until the longer partition drains.
        self._finish_query_kernel(query, lc_end, active, result)
        return end

    def _run_chain(self, action, now, active, result) -> float:
        """A fused pair extended with CD riders (>2-kernel chain).

        The pair's co-run comes from the fused-launch oracle record;
        each rider's solo time extends the CD pipe behind the pair's CD
        half, exactly as the policy priced it.  The online fused model
        is *not* trained on chain makespans — they would bias the pair
        model the Eq. 8 gate relies on.
        """
        query = action.query
        app = action.be_app
        fused = action.fused
        lc_instance = query.current
        be_instance = app.head
        if self._telemetry is not None and query.cursor == 0:
            self._telemetry.note_first_launch(query.qid, now)
        if lc_instance.kind == "tc":
            tc_grid, cd_grid = lc_instance.grid, be_instance.grid
        else:
            tc_grid, cd_grid = be_instance.grid, lc_instance.grid
        corun = self.oracle.fused(fused, tc_grid, cd_grid)
        tc_end = now + self.gpu.cycles_to_ms(corun.finish_a_cycles)
        cd_end = now + self.gpu.cycles_to_ms(corun.finish_b_cycles)
        end = now + self.gpu.cycles_to_ms(corun.duration_cycles)
        rider_solos = []
        for rider in action.riders:
            head = rider.head
            solo = self.oracle.solo_ms(head.kernel, head.grid)
            rider_solos.append((rider, solo))
            cd_end += solo
            end = max(end, cd_end)
        name = "+".join(
            [fused.name] + [rider.head.name for rider in action.riders]
        )
        self._record(result, now, end, "chain", name, tc_end, cd_end,
                     query.model.name)
        result.n_chain_kernels += 1
        self._note_outcome(
            "chain", name, action.predicted_fused_ms, end - now, end
        )
        self._retire_be_head(app, result, end)
        for rider, _ in rider_solos:
            self._retire_be_head(rider, result, end)
        self._finish_query_kernel(query, end, active, result)
        return end

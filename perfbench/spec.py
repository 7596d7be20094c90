"""What the serving-stack benchmark measures: workloads and metrics.

The single source of truth for ``BENCHMARK.json`` (``run.py
--write-manifest`` regenerates it from here) and for the names and
units the harness reports.  This module imports nothing from the
program, so the parent process can read it before the child has
proved that the program is importable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: How long one run measures, in seconds (the manifest's run_seconds).
RUN_SECONDS = 8

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Fewest timed serves per untraced run, however short ``--seconds``.
MIN_TIMED_REPEATS = 2

#: Simulated length of one node-epoch (``AutoscaleSpec.epoch_ms``'s
#: default); single-node workloads count their serve in the same unit.
EPOCH_MS = 1000.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: scenario library entry the workload replays
    scenario: str
    policy: str = "tacker"
    #: telemetry, SLO monitor and invariant audit all on
    observed: bool = False
    #: LC queries in the single-node trace (None = fleet workload)
    queries: Optional[int] = 300
    #: fleet scale and control span (fleet workload only)
    rate_nodes: int = 0
    span_ms: float = 0.0

    @property
    def fleet(self) -> bool:
        return self.queries is None


WORKLOADS = (
    Workload(
        "steady", scenario="steady",
        why="steady replay under tacker, observers off: the scheduler hot "
            "path (policies, headroom, server) dominates on cheap solo "
            "oracle hits",
    ),
    Workload(
        "steady-hfuse", scenario="steady", policy="hfuse",
        why="the same trace under hfuse: only the oracle's "
            "launch-signature co-run lookups differ from steady",
    ),
    Workload(
        "steady-observed", scenario="steady", observed=True,
        why="the same trace with telemetry, SLO monitor and audit on: the "
            "only workload where the observer layers do work",
    ),
    Workload(
        "fleet-diurnal", scenario="diurnal", queries=None,
        rate_nodes=2, span_ms=20000.0,
        why="burn-rate autoscaling over one diurnal day on one worker: the "
            "only workload that runs autoscale and cluster routing",
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: regression bound as a share of the parent's median (end-to-end only)
    bound: Optional[float] = None

    def manifest(self) -> dict:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


END_TO_END = (
    Metric("queries_per_s", "1/s", "higher", 0.25),
    Metric("node_epochs_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("sim_p99_ms", "sim-ms", "lower", 0.05),
    Metric("sim_be_throughput", "ms/ms", "higher", 0.1),
    Metric("qos_met_pct", "%", "higher", 0.02),
    Metric("sim_node_seconds", "node-s", "lower", 0.15),
)

PER_LAYER = (
    # runtime/policies
    Metric("policy.decisions", "count", "lower"),
    Metric("policy.decisions_per_query", "count", "lower"),
    Metric("policy.decide_us_p50", "us", "lower"),
    Metric("policy.decide_us_p99", "us", "lower"),
    Metric("policy.self_share", "fraction", "lower"),
    # runtime/oracle
    Metric("oracle.hits", "count", "lower"),
    Metric("oracle.misses", "count", "lower"),
    Metric("oracle.persistent_hits", "count", "lower"),
    Metric("oracle.solo_hit_ns", "ns", "lower"),
    Metric("oracle.corun_hit_ns", "ns", "lower"),
    Metric("oracle.self_share", "fraction", "lower"),
    # runtime/server
    Metric("server.launches", "count", "lower"),
    Metric("server.self_s", "s", "lower"),
    Metric("server.overhead_us_per_launch", "us", "lower"),
    # gpusim, fusion and predictor, reached through runtime/system
    Metric("gpusim.simulations", "count", "lower"),
    Metric("gpusim.fast_launches", "count", "lower"),
    Metric("gpusim.engine_launches", "count", "lower"),
    Metric("gpusim.busy_s", "s", "lower"),
    Metric("gpusim.serve_simulations", "count", "lower"),
    Metric("system.fusion_pairs", "count", "lower"),
    Metric("system.artifacts", "count", "higher"),
    Metric("system.prepare_s", "s", "lower"),
    Metric("predictor.fused_models", "count", "higher"),
    # runtime/replay
    Metric("replay.synth_s", "s", "lower"),
    Metric("replay.arrivals_per_s", "1/s", "higher"),
    # observers (telemetry, audit, SLO monitor)
    Metric("observer.slo_us_per_decision", "us", "lower"),
    Metric("observer.audit_us_per_decision", "us", "lower"),
    Metric("observer.telemetry_us_per_decision", "us", "lower"),
    Metric("observer.alerts", "count", "lower"),
    Metric("observer.telemetry_records", "count", "lower"),
    Metric("observer.telemetry_kb_per_query", "KB", "lower"),
    # runtime/autoscale + runtime/cluster
    Metric("fleet.node_epochs", "count", "lower"),
    Metric("fleet.replica_ms_p50", "ms", "lower"),
    Metric("fleet.replica_ms_p99", "ms", "lower"),
    Metric("fleet.controller_s", "s", "lower"),
    Metric("fleet.parallel_speedup_2w", "x", "higher"),
    # the traced run itself
    Metric("trace.overhead_pct", "%", "lower"),
)

def manifest() -> dict:
    """The ``BENCHMARK.json`` contents."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }

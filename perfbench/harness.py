"""One measured run of one benchmark workload (the child process).

``run.py`` starts this file with an isolated environment: ``src`` on
``PYTHONPATH``, a private ``REPRO_CACHE_DIR`` inside ``--work``, and
none of the program's global switches.  It prints one JSON document as
its last line of output.

Untraced run (``--trace 0``):

1. Set-up from an empty oracle store: build a ``TackerSystem``,
   ``prepare_pair`` every (LC service, BE app) pair of the scenario,
   synthesise the trace, persist the store.  The program memoizes
   simulations per process too, so a cold set-up needs a fresh process:
   ``run.py`` times ``SETUP_REPEATS - 1`` more in ``--setup-only``
   children and reports the median.
2. A warm-up serve on the last set-up's system.  It pays the simulations
   serving triggers lazily and is the reference every later serve must
   reproduce exactly.
3. Timed serves, each on a fresh system over the persisted store, until
   ``--seconds`` have passed (at least ``MIN_TIMED_REPEATS``).

Set-up and timed serves run under a :class:`~hostclock.HostClock`,
which reports their host time at the reference host speed as well as
raw.

Traced run (``--trace 1``): one traced set-up, one traced cold serve,
then untraced and traced serves in alternation, each traced serve
folded by a fresh :class:`~tracer.Tracer`.  The observed workload also
serves the trace once per single observer, and the fleet workload once
on two workers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from checks import Ledger, Outcome, digest  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402

from repro.api import (  # noqa: E402
    AutoscaleSpec,
    SLOMonitor,
    TackerSystem,
    default_slo_rules,
    load_scenario,
    run_autoscale,
    serve_trace,
    synthesize_trace,
)
from repro.experiments.common import parallel_map  # noqa: E402
from repro.gpusim import fastpath  # noqa: E402
from repro.models.zoo import model_by_name  # noqa: E402
from repro.runtime.oracle import CACHE_DIR_ENV, DurationOracle  # noqa: E402
from repro.runtime.server import ColocationServer  # noqa: E402
from repro.runtime.workload import be_application  # noqa: E402

_clock = time.perf_counter

#: Observer switches: (telemetry, audit, SLO monitor).
OBSERVERS_OFF = (False, False, False)
OBSERVERS_ON = (True, True, True)
SINGLE_OBSERVERS = {
    "telemetry": (True, False, False),
    "audit": (False, True, False),
    "slo": (False, False, True),
}

#: DurationOracle lookups the tracer wraps, with the memo-hit class
#: each one's outermost calls are timed under.
ORACLE_ENTRY_POINTS = (
    ("solo_ms", "solo"),
    ("solo_cycles", "solo"),
    ("launch_cycles", None),
    ("fused", None),
    ("fused_ms", None),
    ("corun", None),
    ("corun_policy", "corun"),
)


def _median(values) -> float:
    return float(statistics.median(values))


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _fast_counts() -> tuple:
    return fastpath.STATS.fast, fastpath.STATS.engine


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- workloads ------------------------------------------------------------------


class Workbench:
    """Set-up shared by every workload: one scenario, all its pairs."""

    scenario = None
    trace = None
    default_observers = OBSERVERS_OFF

    def _system(self, observers=OBSERVERS_OFF) -> TackerSystem:
        telemetry, audit, _ = observers
        return TackerSystem(
            config=self.scenario.run_config(), telemetry=telemetry,
            audit=audit,
        )

    def _prepare(self, system: TackerSystem) -> None:
        for lc_name in self.scenario.lc_services:
            for be_name in self.scenario.be_apps:
                system.prepare_pair(
                    model_by_name(lc_name),
                    be_application(be_name, system.library),
                )

    def setup(self, tracer: "Tracer | None" = None) -> TackerSystem:
        """Build, prepare every pair, synthesise the trace, persist."""
        system = self._system(self.default_observers)
        self._prepare(system)
        synthesize = synthesize_trace
        if tracer is not None:
            synthesize = partial(tracer.call, "replay.synthesize_trace",
                                 synthesize_trace)
        self.trace = synthesize(self.scenario, system.library, system.oracle)
        system.flush()
        return system


class SingleNode(Workbench):
    """A scenario trace replayed on one node through ``serve_trace``."""

    def __init__(self, workload: spec.Workload, seed: int, queries: int):
        self.workload = workload
        self.scenario = dataclasses.replace(
            load_scenario(workload.scenario), seed=seed, queries=queries
        )

    @property
    def default_observers(self) -> tuple:
        return OBSERVERS_ON if self.workload.observed else OBSERVERS_OFF

    def fresh_system(self, observers=None) -> TackerSystem:
        """A prepared system over the persisted store (not timed)."""
        system = self._system(
            self.default_observers if observers is None else observers
        )
        self._prepare(system)
        return system

    def serve(self, system: TackerSystem, observers=None,
              clock: "HostClock | None" = None):
        """Serve the trace; returns (raw wall seconds, Outcome, result)."""
        if observers is None:
            observers = self.default_observers
        monitor = None
        if observers[2]:
            qos_ms = self.scenario.qos_ms
            monitor = SLOMonitor(default_slo_rules(qos_ms), qos_ms)
        oracle = system.oracle
        before = (oracle.hits, oracle.misses, oracle.persistent_hits)
        fast_before = _fast_counts()
        wall, result = timed(partial(
            serve_trace, system, self.trace, self.scenario.be_apps,
            self.workload.policy, monitor=monitor,
        ), clock)
        fast_after = _fast_counts()
        return wall, self.outcome(result, oracle, before, fast_before,
                                  fast_after), result

    def outcome(self, result, oracle, before, fast_before,
                fast_after) -> Outcome:
        n_trace = len(self.trace)
        launches = (
            result.n_lc_kernels + result.n_be_kernels
            + result.n_fused_kernels + result.n_hfused_kernels
            + result.n_spatial_kernels + result.n_chain_kernels
        )
        return Outcome(
            trace_queries=n_trace,
            served=result.n_queries,
            sim={
                "sim_p99_ms": result.p99_latency_ms,
                "sim_be_throughput": result.be_throughput,
                "qos_met_pct": 100.0 * (result.n_queries - result.n_violations)
                / n_trace,
                "sim_node_seconds": result.end_ms / 1000.0,
                "node_epochs": result.end_ms / spec.EPOCH_MS,
            },
            counters={"launches": launches, "alerts": len(result.alerts)},
            work={
                "oracle_hits": oracle.hits - before[0],
                "oracle_misses": oracle.misses - before[1],
                "oracle_persistent_hits": oracle.persistent_hits - before[2],
                "fast_launches": fast_after[0] - fast_before[0],
                "engine_launches": fast_after[1] - fast_before[1],
            },
            summary_digest=digest(result.summary_dict()),
        )


class Fleet(Workbench):
    """``run_autoscale`` over a seeded copy of a scenario file."""

    def __init__(self, workload: spec.Workload, seed: int, work: Path,
                 span_ms: float):
        self.workload = workload
        data = json.loads(
            (Path.cwd() / "scenarios" / f"{workload.scenario}.json").read_text()
        )
        data["seed"] = seed
        self.path = work / f"{workload.scenario}-seed{seed}.json"
        self.path.write_text(json.dumps(data, indent=1))
        self.scenario = load_scenario(str(self.path))
        self.spec = AutoscaleSpec(
            scenario=str(self.path), rate_nodes=workload.rate_nodes,
            span_ms=span_ms,
        )

    def fresh_system(self, observers=None) -> None:
        return None  # run_autoscale builds its own systems

    def serve(self, system=None, observers=None, clock=None, map_fn=None):
        fast_before = _fast_counts()
        wall, result = timed(partial(run_autoscale, self.spec, map_fn=map_fn),
                             clock)
        fast_after = _fast_counts()
        return wall, self.outcome(result, fast_before, fast_after), result

    def outcome(self, result, fast_before, fast_after) -> Outcome:
        stats = result.node_stats
        launches = sum(
            s.n_lc_kernels + s.n_be_kernels + s.n_fused_kernels
            for s in stats
        )
        node_ms = result.node_seconds * 1000.0
        return Outcome(
            trace_queries=result.n_trace_queries,
            served=result.total_queries,
            sim={
                "sim_p99_ms": result.merged_p99_ms,
                "sim_be_throughput": result.total_be_work_ms / node_ms,
                "qos_met_pct": 100.0
                * (result.total_queries - result.total_violations)
                / result.n_trace_queries,
                "sim_node_seconds": result.node_seconds,
                "node_epochs": float(len(stats)),
            },
            counters={
                "launches": launches,
                "alerts": len(result.alerts),
                "rerouted": result.n_rerouted,
            },
            work={
                "fast_launches": fast_after[0] - fast_before[0],
                "engine_launches": fast_after[1] - fast_before[1],
            },
            summary_digest=digest([
                result.summary_dict(),
                [dataclasses.astuple(e) for e in result.epochs],
                [
                    (s.node, s.epoch, s.n_queries, s.n_violations,
                     s.be_work_ms, s.n_lc_kernels, s.n_be_kernels,
                     s.n_fused_kernels, s.guard_events)
                    for s in stats
                ],
                [dataclasses.astuple(d) for d in result.decisions],
                result.alerts,
            ]),
        )


def make_workload(name: str, seed: int, work: Path, tiny: bool):
    workload = spec.WORKLOADS_BY_NAME[name]
    if workload.fleet:
        return Fleet(workload, seed, work,
                     span_ms=3000.0 if tiny else workload.span_ms)
    return SingleNode(workload, seed, 24 if tiny else workload.queries)


# -- set-up ------------------------------------------------------------------------


def use_store(work: Path, label: str) -> None:
    """Point every oracle store the program opens at an empty directory."""
    directory = work / f"store-{label}"
    directory.mkdir(parents=True, exist_ok=False)
    os.environ[CACHE_DIR_ENV] = str(directory)


@contextmanager
def host_clocked(clock: HostClock):
    """Tick ``clock`` from inside the program while the block runs.

    Every ``decide`` of a policy built by ``make_policy`` counts one step
    and ticks the clock every 256 steps; every ``prepare_fusion`` call
    ticks it too (set-up makes no decisions).
    """
    make_policy = TackerSystem.__dict__["make_policy"]
    prepare_fusion = TackerSystem.__dict__["prepare_fusion"]

    def ticking_make_policy(system, *args, **kwargs):
        policy = make_policy(system, *args, **kwargs)
        decide = policy.decide

        def ticking_decide(*a, **k):
            clock.steps += 1
            if not clock.steps & 255:
                clock.tick()
            return decide(*a, **k)

        policy.decide = ticking_decide
        return policy

    def ticking_prepare_fusion(system, *args, **kwargs):
        artifact = prepare_fusion(system, *args, **kwargs)
        clock.tick()
        return artifact

    TackerSystem.make_policy = ticking_make_policy
    TackerSystem.prepare_fusion = ticking_prepare_fusion
    try:
        yield clock
    finally:
        TackerSystem.make_policy = make_policy
        TackerSystem.prepare_fusion = prepare_fusion


def timed(call, clock: "HostClock | None" = None) -> tuple:
    """Run ``call()``; returns (raw wall seconds, its result).

    With a clock, the clock also rescales the wall to the reference host
    speed (``clock.ref_s``), probing from inside the program.
    """
    if clock is None:
        start = _clock()
        result = call()
        return _clock() - start, result
    with host_clocked(clock):
        clock.start()
        result = call()
        clock.stop()
    return clock.raw_s, result


def timed_setup(bench, work: Path) -> tuple:
    """One cold set-up, from an empty store; returns (clock, system)."""
    use_store(work, "setup")
    clock = HostClock()
    _, system = timed(bench.setup, clock)
    return clock, system


# -- the untraced run ----------------------------------------------------------------


def run_untraced(bench, args, work: Path, ledger: Ledger) -> tuple:
    setup, system = timed_setup(bench, work)
    warm_up = HostClock()
    _, reference, _ = bench.serve(system, clock=warm_up)
    ledger.check("warm-up serve", reference)
    system.flush()
    del system

    clocks, outcomes = [], []
    deadline = _clock() + args.seconds
    while len(clocks) < spec.MIN_TIMED_REPEATS or _clock() < deadline:
        label = f"timed serve {len(clocks) + 1}"
        clock = HostClock()
        try:
            _, outcome, _ = bench.serve(bench.fresh_system(), clock=clock)
        except Exception:
            ledger.crashed(label, reference.trace_queries,
                           traceback.format_exc(limit=3))
            break
        ledger.check(label, outcome, reference,
                     outcomes[0] if outcomes else None)
        clocks.append(clock)
        outcomes.append(outcome)
    if not clocks:
        raise RuntimeError("no timed serve completed")

    sim = reference.sim
    metrics = {
        "queries_per_s": _median(reference.served / c.ref_s for c in clocks),
        "node_epochs_per_s":
            _median(sim["node_epochs"] / c.ref_s for c in clocks),
        "setup_s": setup.ref_s,
        "peak_rss_mb": _peak_rss_mb(),
        "sim_p99_ms": sim["sim_p99_ms"],
        "sim_be_throughput": sim["sim_be_throughput"],
        "qos_met_pct": sim["qos_met_pct"],
        "sim_node_seconds": sim["sim_node_seconds"],
    }
    report = {
        "digest": reference.digest,
        "counters": {
            "decisions": warm_up.steps,
            **reference.counters,
            "node_epochs": sim["node_epochs"],
            **outcomes[0].work,
        },
        "raw": {
            "queries_per_s":
                _median(reference.served / c.raw_s for c in clocks),
            "setup_s": setup.raw_s,
        },
        "serve_walls_s": [c.raw_s for c in clocks],
        "serve_ref_s": [c.ref_s for c in clocks],
        "warmup_work": reference.work,
    }
    return metrics, report


# -- the traced run -------------------------------------------------------------------


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layer entry points for one traced phase."""
    for attr, hit_kind in ORACLE_ENTRY_POINTS:
        original = DurationOracle.__dict__[attr]
        tracer.patch(DurationOracle, attr,
                     tracer.oracle_wrap(f"oracle.{attr}", original, hit_kind))

    serve = ColocationServer.__dict__["serve"]
    tracer.patch(
        ColocationServer, "serve",
        lambda server, *a, **k: tracer.call("server.serve", serve, server,
                                            *a, **k),
    )

    make_policy = TackerSystem.__dict__["make_policy"]

    def count_launch(action) -> None:
        if action is not None:
            tracer.count("server.launches")

    def traced_make_policy(system, *args, **kwargs):
        policy = make_policy(system, *args, **kwargs)
        policy.decide = tracer.hot_wrap("policy.decide", policy.decide,
                                        after=count_launch)
        return policy

    tracer.patch(TackerSystem, "make_policy", traced_make_policy)

    prepare_pair = TackerSystem.__dict__["prepare_pair"]
    tracer.patch(
        TackerSystem, "prepare_pair",
        lambda system, *a, **k: tracer.call("system.prepare_pair",
                                            prepare_pair, system, *a, **k),
    )
    prepare_fusion = TackerSystem.__dict__["prepare_fusion"]
    searched = set()

    def traced_prepare_fusion(system, tc_name, cd_name):
        if (tc_name, cd_name) not in searched:
            searched.add((tc_name, cd_name))
            tracer.count("system.fusion_pairs")
        return prepare_fusion(system, tc_name, cd_name)

    tracer.patch(
        TackerSystem, "prepare_fusion",
        tracer.hot_wrap("system.prepare_fusion", traced_prepare_fusion),
    )
    try:
        yield tracer
    finally:
        tracer.unpatch()


def replica_map(tracer: Tracer):
    """A serial ``map_fn`` that records one span per replica-epoch."""

    def map_fn(fn, specs):
        return [tracer.call("fleet.replica", fn, s) for s in specs]

    return map_fn


def run_traced(bench, args, work: Path, ledger: Ledger) -> tuple:
    fleet = isinstance(bench, Fleet)

    # Set-up from an empty store, traced.
    use_store(work, "setup")
    setup_tracer = Tracer()
    fast_before = _fast_counts()
    with installed(setup_tracer):
        system = setup_tracer.call("setup", bench.setup, setup_tracer)
    fast_after = _fast_counts()
    artifacts = len(system.artifacts)
    fused_models = system.models.trained_fused_models

    # The first serve pays the lazily triggered simulations.
    cold_tracer = Tracer()
    with installed(cold_tracer):
        if fleet:
            _, reference, _ = bench.serve(map_fn=replica_map(cold_tracer))
        else:
            _, reference, _ = bench.serve(system)
    ledger.check("cold traced serve", reference)
    system.flush()
    del system

    # Untraced and traced serves in alternation.
    plain_walls, traced = [], []
    deadline = _clock() + args.seconds
    while not traced or _clock() < deadline:
        index = len(traced) + 1
        wall, outcome, _ = bench.serve(bench.fresh_system())
        ledger.check(f"untraced serve {index}", outcome, reference)
        plain_walls.append(wall)
        tracer = Tracer()
        fresh = bench.fresh_system()
        with installed(tracer):
            if fleet:
                wall, outcome, result = tracer.call(
                    "fleet.run_autoscale", bench.serve,
                    map_fn=replica_map(tracer),
                )
            else:
                wall, outcome, result = bench.serve(fresh)
        ledger.check(f"traced serve {index}", outcome, reference)
        session = getattr(result, "telemetry", None)
        records = (
            len(session.decisions) + len(session.spans) if session else 0
        )
        traced.append((wall, tracer, outcome, records))
        del result, session
    traced.sort(key=lambda entry: entry[0])
    wall, tracer, outcome, records = traced[len(traced) // 2]
    traced_walls = [entry[0] for entry in traced]

    queries = outcome.served
    wall_ns = wall * 1e9
    decide = tracer.hot.get("policy.decide")
    decisions = decide.count if decide is not None else 0
    launches = tracer.counts.get("server.launches", 0)
    server_self_s = tracer.span_self_ns("server.serve") / 1e9
    synth_s = sum(setup_tracer.span_walls_ns("replay.synthesize_trace")) / 1e9
    metrics = {
        "policy.decisions": decisions,
        "policy.decisions_per_query": decisions / queries,
        "policy.decide_us_p50": decide.quantile_ns(0.5) / 1e3 if decide else 0.0,
        "policy.decide_us_p99": decide.quantile_ns(0.99) / 1e3 if decide else 0.0,
        "policy.self_share": (decide.self_ns if decide else 0) / wall_ns,
        "oracle.hits": tracer.counts.get("oracle.hits", 0),
        "oracle.misses": tracer.counts.get("oracle.misses", 0),
        "oracle.persistent_hits": tracer.counts.get("oracle.persistent_hits", 0),
        "oracle.solo_hit_ns": tracer.hit_cost_ns("solo", DurationOracle),
        "oracle.corun_hit_ns": tracer.hit_cost_ns("corun", DurationOracle),
        "oracle.self_share": tracer.self_ns("oracle.") / wall_ns,
        "server.launches": launches,
        "server.self_s": server_self_s,
        "server.overhead_us_per_launch":
            server_self_s * 1e6 / launches if launches else 0.0,
        "gpusim.simulations": setup_tracer.counts.get("gpusim.simulations", 0),
        "gpusim.fast_launches": fast_after[0] - fast_before[0],
        "gpusim.engine_launches": fast_after[1] - fast_before[1],
        "gpusim.busy_s": setup_tracer.counts.get("gpusim.busy_ns", 0) / 1e9,
        "gpusim.serve_simulations":
            cold_tracer.counts.get("gpusim.simulations", 0),
        "system.fusion_pairs": setup_tracer.counts.get("system.fusion_pairs", 0),
        "system.artifacts": artifacts,
        "system.prepare_s":
            sum(setup_tracer.span_walls_ns("system.prepare_pair")) / 1e9,
        "predictor.fused_models": fused_models,
        "replay.synth_s": synth_s,
        "replay.arrivals_per_s":
            len(bench.trace) / synth_s if synth_s else 0.0,
        "observer.slo_us_per_decision": 0.0,
        "observer.audit_us_per_decision": 0.0,
        "observer.telemetry_us_per_decision": 0.0,
        "observer.alerts": outcome.counters["alerts"],
        "observer.telemetry_records": records,
        "observer.telemetry_kb_per_query": 0.0,
        "fleet.node_epochs": 0,
        "fleet.replica_ms_p50": 0.0,
        "fleet.replica_ms_p99": 0.0,
        "fleet.controller_s": 0.0,
        "fleet.parallel_speedup_2w": 0.0,
        "trace.overhead_pct":
            (_median(traced_walls) / _median(plain_walls) - 1.0) * 100.0,
    }
    if fleet:
        replica_ms = [ns / 1e6 for ns in tracer.span_walls_ns("fleet.replica")]
        metrics.update({
            "fleet.node_epochs": len(replica_ms),
            "fleet.replica_ms_p50": _quantile(replica_ms, 0.5),
            "fleet.replica_ms_p99": _quantile(replica_ms, 0.99),
            "fleet.controller_s": wall - sum(replica_ms) / 1e3,
        })
        two_wall, two_outcome, _ = bench.serve(
            map_fn=partial(parallel_map, workers=2)
        )
        ledger.check("two-worker serve", two_outcome, reference)
        metrics["fleet.parallel_speedup_2w"] = _median(plain_walls) / two_wall
    elif bench.workload.observed:
        metrics.update(observer_costs(bench, decisions, ledger, reference))

    report = {
        "digest": reference.digest,
        "counters": {
            "decisions": decisions,
            **outcome.counters,
            "node_epochs": outcome.sim["node_epochs"],
            "oracle_hits": metrics["oracle.hits"],
            "oracle_misses": metrics["oracle.misses"],
            "oracle_persistent_hits": metrics["oracle.persistent_hits"],
        },
        "serve_walls_s": plain_walls,
        "traced_walls_s": traced_walls,
        "trace_file": str(args.trace_out),
    }
    args.trace_out.write_text(json.dumps({
        "setup": setup_tracer.to_dict(),
        "cold_serve": cold_tracer.to_dict(),
        "serve": tracer.to_dict(),
    }, indent=1))
    return metrics, report


def observer_costs(bench: SingleNode, decisions: int, ledger: Ledger,
                   reference: Outcome) -> dict:
    """Added host time per decision of each observer alone, against none.

    Also the memory the telemetry-only serve's session holds, per query.
    """
    walls = {}
    telemetry_kb = 0.0
    for name, observers in (("off", OBSERVERS_OFF),
                            *SINGLE_OBSERVERS.items()):
        system = bench.fresh_system(observers)
        clock = HostClock()
        _, outcome, result = bench.serve(system, observers, clock=clock)
        if name == "telemetry":
            telemetry_kb = deep_size(result.telemetry) / 1024.0
        del result
        # Only the SLO monitor raises alerts; the rest must match exactly.
        expected = dataclasses.replace(reference, counters={
            **reference.counters,
            "alerts": reference.counters["alerts"] if observers[2] else 0,
        })
        ledger.check(f"{name}-observer serve", outcome, expected)
        walls[name] = clock.ref_s
    per_decision = 1e6 / decisions if decisions else 0.0
    costs = {
        f"observer.{name}_us_per_decision":
            (walls[name] - walls["off"]) * per_decision
        for name in SINGLE_OBSERVERS
    }
    costs["observer.telemetry_kb_per_query"] = telemetry_kb / reference.served
    return costs


def deep_size(root) -> int:
    """Bytes of every object reachable from ``root`` (each counted once)."""
    seen = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        elif hasattr(type(obj), "__slots__"):
            stack.extend(getattr(obj, slot) for slot in type(obj).__slots__
                         if hasattr(obj, slot))
    return total


# -- entry point ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, required=True,
                        help="where the traced run writes its spans")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and exit")
    args = parser.parse_args(argv)

    ledger = Ledger()
    bench = make_workload(args.workload, args.seed, args.work, args.tiny)
    if args.setup_only:
        clock, _ = timed_setup(bench, args.work)
        print(json.dumps({"setup_s": clock.ref_s, "raw_setup_s": clock.raw_s}))
        return 0
    run = run_traced if args.trace else run_untraced
    metrics, report = run(bench, args, args.work, ledger)
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors[:20],
        "metrics": metrics,
        "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

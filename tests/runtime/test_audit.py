"""Tests for the runtime invariant auditor (repro.audit)."""

from __future__ import annotations

import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import audit
from repro.errors import AuditViolation
from repro.experiments.common import parallel_map
from repro.gpusim import fastpath
from repro.gpusim.gpu import run_blocks
from repro.gpusim.trace import Timeline
from repro.kernels.parboil import mriq
from repro.models.zoo import model_by_name
from repro.runtime.policies import GuardConfig, MispredictGuard
from repro.runtime.replay import load_scenario, serve_trace, synthesize_trace
from repro.runtime.server import ColocationServer, ServerResult
from repro.runtime.system import TackerSystem, clear_offline_catalog
from repro.runtime.workload import be_application


@pytest.fixture(autouse=True)
def clean_audit():
    """The audit switch and counters are process-global; isolate tests."""
    audit.reset()
    yield
    audit.reset()


class TestCore:
    def test_off_by_default(self):
        for env in audit.AUDIT_ENVS:
            assert not os.environ.get(env), (
                f"{env} set in the test environment; audit tests assume "
                "environment-driven activation is off"
            )
        assert not audit.active()

    def test_enable_disable_reset(self):
        audit.enable()
        assert audit.active()
        audit.disable()
        assert not audit.active()
        audit.reset()
        assert not audit.active()

    def test_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert audit.active()
        monkeypatch.setenv("REPRO_AUDIT", "0")
        assert not audit.active()
        # A programmatic disable overrides the environment.
        monkeypatch.setenv("REPRO_AUDIT", "1")
        audit.disable()
        assert not audit.active()

    def test_ensure_counts_and_passes(self):
        audit.ensure(True, "some-invariant", "never fails")
        audit.ensure(True, "some-invariant", "never fails")
        assert audit.summary() == {"some-invariant": 2}

    def test_violation_carries_context(self):
        with pytest.raises(AuditViolation) as info:
            audit.ensure(
                False, "demo-invariant", "things diverged",
                kernel="mriq", start_ms=3.0,
            )
        err = info.value
        assert err.invariant == "demo-invariant"
        assert err.context == {"kernel": "mriq", "start_ms": 3.0}
        assert "demo-invariant" in str(err)
        assert "mriq" in str(err)

    def test_engine_sampling_respects_config(self):
        audit.configure(audit.AuditConfig(
            differential_every=2, differential_max=3,
        ))
        decisions = [audit.take_engine_sample() for _ in range(10)]
        assert decisions == [
            True, False, True, False, True, False,
            False, False, False, False,
        ]


def make_auditor(remaining=None, thr=1000.0, version=0, guard=None):
    """A ServerAuditor over a stub policy."""
    remaining = remaining if remaining is not None else {}
    policy = SimpleNamespace(
        models=SimpleNamespace(version=version),
        headroom=SimpleNamespace(
            predicted_remaining_ms=lambda q: remaining[q.qid],
        ),
        current_thr_ms=lambda now, active: thr,
        guard=guard,
    )
    return audit.ServerAuditor(policy, qos_ms=50.0, horizon_ms=1e9), policy


def empty_result(**overrides):
    fields = dict(
        qos_ms=50.0, horizon_ms=1e9, end_ms=0.0, latencies_ms=[],
        be_work_ms={}, tc_timeline=Timeline(), cd_timeline=Timeline(),
    )
    fields.update(overrides)
    return ServerResult(**fields)


class TestServerAuditor:
    def test_overlapping_kernels_rejected(self):
        auditor, _ = make_auditor()
        auditor.on_kernel(0.0, 10.0, "lc", "a")
        with pytest.raises(AuditViolation, match="busy-timeline-monotone"):
            auditor.on_kernel(9.0, 12.0, "lc", "b")

    def test_backwards_kernel_rejected(self):
        auditor, _ = make_auditor()
        with pytest.raises(AuditViolation, match="busy-timeline-monotone"):
            auditor.on_kernel(10.0, 5.0, "lc", "a")

    def test_eq9_negative_reservation_rejected(self):
        auditor, _ = make_auditor(remaining={7: -1.0})
        query = SimpleNamespace(qid=7)
        action = SimpleNamespace(kind="lc")
        with pytest.raises(AuditViolation, match="eq9-reservation"):
            auditor.on_action(0.0, action, [query])

    def test_eq9_growing_reservation_rejected(self):
        remaining = {7: 20.0}
        auditor, _ = make_auditor(remaining=remaining)
        query = SimpleNamespace(qid=7)
        action = SimpleNamespace(kind="lc")
        auditor.on_action(0.0, action, [query])
        remaining[7] = 25.0  # a stale/colliding cache produced this
        with pytest.raises(AuditViolation, match="eq9-reservation"):
            auditor.on_action(1.0, action, [query])

    def test_model_refresh_restarts_eq9_history(self):
        remaining = {7: 20.0}
        auditor, policy = make_auditor(remaining=remaining)
        query = SimpleNamespace(qid=7)
        action = SimpleNamespace(kind="lc")
        auditor.on_action(0.0, action, [query])
        remaining[7] = 25.0
        policy.models.version = 1  # a legal refit moved the prediction
        auditor.on_action(1.0, action, [query])  # must not raise

    def test_eq8_sequential_faster_rejected(self):
        auditor, _ = make_auditor()
        action = SimpleNamespace(
            kind="fused", fused=SimpleNamespace(name="f"),
            predicted_lc_ms=5.0, predicted_be_ms=3.0,
            predicted_fused_ms=9.0,
        )
        with pytest.raises(AuditViolation, match="eq8-at-decision"):
            auditor.on_action(0.0, action, [])

    def test_eq8_thr_overrun_rejected(self):
        auditor, _ = make_auditor(thr=1.0)
        action = SimpleNamespace(
            kind="fused", fused=SimpleNamespace(name="f"),
            predicted_lc_ms=5.0, predicted_be_ms=3.0,
            predicted_fused_ms=7.0,  # extra LC 2.0 > thr 1.0
        )
        with pytest.raises(AuditViolation, match="eq8-at-decision"):
            auditor.on_action(0.0, action, [])

    def test_be_work_conservation(self):
        auditor, _ = make_auditor()
        auditor.on_be_retired("fft", 4.0, end_ms=10.0)
        auditor.on_be_retired("fft", 4.0, end_ms=20.0)
        good = empty_result(be_work_ms={"fft": 8.0}, n_be_kernels=0)
        auditor.on_run_complete(good)
        with pytest.raises(AuditViolation, match="be-work-conservation"):
            auditor.on_run_complete(
                empty_result(be_work_ms={"fft": 9.0})
            )

    def test_be_work_outside_horizon_not_credited(self):
        auditor, _ = make_auditor()
        auditor.horizon_ms = 15.0
        auditor.on_be_retired("fft", 4.0, end_ms=10.0)
        auditor.on_be_retired("fft", 4.0, end_ms=20.0)  # past horizon
        auditor.on_run_complete(empty_result(be_work_ms={"fft": 4.0}))

    def test_kernel_count_conservation(self):
        auditor, _ = make_auditor()
        auditor.on_kernel(0.0, 1.0, "lc", "a")
        auditor.on_kernel(1.0, 2.0, "be", "b")
        auditor.on_run_complete(
            empty_result(n_lc_kernels=1, n_be_kernels=1, end_ms=2.0)
        )
        with pytest.raises(AuditViolation, match="kernel-count"):
            auditor.on_run_complete(
                empty_result(n_lc_kernels=1, end_ms=2.0)
            )


class TestGuardLadderAudit:
    @staticmethod
    def auditor_with_guard():
        guard = MispredictGuard(GuardConfig())
        auditor, _ = make_auditor(guard=guard)
        return auditor, guard

    def test_legal_transitions_pass(self):
        auditor, guard = self.auditor_with_guard()
        cfg = guard.config
        guard.transitions = [(1, "fuse", "reorder"), (9, "reorder", "fuse")]
        guard.transition_risks = [
            cfg.reorder_risk + 0.01,
            cfg.reorder_risk * cfg.recover_ratio - 0.01,
        ]
        auditor.on_run_complete(empty_result())

    def test_skipped_rung_rejected(self):
        auditor, guard = self.auditor_with_guard()
        guard.transitions = [(1, "fuse", "exclusive")]
        guard.transition_risks = [0.5]
        with pytest.raises(AuditViolation, match="guard-ladder"):
            auditor.on_run_complete(empty_result())

    def test_hysteresis_violation_rejected(self):
        auditor, guard = self.auditor_with_guard()
        cfg = guard.config
        # Recovery fired while the risk was still inside the
        # hysteresis band (>= rail * recover_ratio): mode flapping.
        guard.transitions = [(5, "reorder", "fuse")]
        guard.transition_risks = [cfg.reorder_risk * cfg.recover_ratio + 0.01]
        with pytest.raises(AuditViolation, match="guard-ladder"):
            auditor.on_run_complete(empty_result())

    def test_real_guard_run_respects_ladder(self):
        guard = MispredictGuard(GuardConfig())
        auditor, _ = make_auditor(guard=guard)
        # Drive the real guard through degradation and recovery.
        for _ in range(60):
            guard.note_query(latency_ms=60.0, qos_ms=50.0)  # violations
        for _ in range(200):
            guard.note_query(latency_ms=10.0, qos_ms=50.0)  # healthy
        assert len(guard.transitions) >= 2
        auditor.on_run_complete(empty_result())


class TestEndToEnd:
    def test_fig14_pair_runs_clean_under_audit(self):
        audit.enable()
        system = TackerSystem(audit=True)
        outcome = system.run_pair("resnet50", "fft", n_queries=5)
        assert outcome.tacker.n_fused_kernels >= 0  # run completed
        checks = audit.summary()
        assert checks.get("eq9-reservation", 0) > 0
        assert checks.get("busy-timeline-monotone", 0) > 0
        assert checks.get("be-work-conservation", 0) > 0

    def test_corrupted_timeline_fails_audit(self, monkeypatch):
        audit.enable()
        original = ColocationServer._run_lc

        def corrupted(self, action, now, active, result):
            # Report the LC kernel as finishing earlier than it did:
            # the next launch then overlaps it on the timeline.
            return original(self, action, now, active, result) - 0.05

        monkeypatch.setattr(ColocationServer, "_run_lc", corrupted)
        system = TackerSystem(audit=True)
        with pytest.raises(AuditViolation, match="busy-timeline-monotone"):
            system.run_pair("resnet50", "fft", n_queries=5)

    def test_steady_run_counts_match_golden_summary(self):
        """Every check of an audited steady serve, counted exactly as
        when each hook passed its context to ``core.ensure``."""
        if not fastpath.enabled():
            pytest.skip("fast path disabled via REPRO_FASTPATH")
        clear_offline_catalog()  # prepare cold: no twin checks
        audit.enable()
        scenario = load_scenario("steady")
        system = TackerSystem(config=scenario.run_config(), store=None)
        for lc_name in scenario.lc_services:
            for be_name in scenario.be_apps:
                system.prepare_pair(
                    model_by_name(lc_name),
                    be_application(be_name, system.library),
                )
        trace = synthesize_trace(
            scenario, system.library, system.oracle, n_queries=60
        )
        serve_trace(system, trace, scenario.be_apps, "tacker")
        assert audit.summary() == {
            "be-work-conservation": 3358,
            "block-retire-once": 16,
            "busy-timeline-monotone": 17875,
            "decide-reference-twin": 140,
            "engine-equivalence": 30,
            "eq8-at-decision": 1078,
            "eq9-reservation": 14990,
            "event-monotone": 28034,
            "group-finish-bounded": 894,
            "kernel-count-conservation": 1,
            "pipe-timeline-disjoint": 41712,
            "pipe-within-run": 618,
            "sm-occupancy": 1545,
        }

    def test_failing_checks_count_like_ensure(self):
        auditor, _ = make_auditor(remaining={7: -1.0})
        auditor.on_kernel(0.0, 10.0, "lc", "a")
        with pytest.raises(AuditViolation):
            auditor.on_kernel(9.0, 12.0, "lc", "b")  # passes 1, fails 1
        with pytest.raises(AuditViolation):
            auditor.on_be_retired("fft", -1.0, end_ms=1.0)
        with pytest.raises(AuditViolation):
            auditor.on_action(0.0, SimpleNamespace(kind="lc"),
                              [SimpleNamespace(qid=7)])
        assert audit.summary() == {
            "be-work-conservation": 1,
            "busy-timeline-monotone": 4,
            "eq9-reservation": 1,
        }

    def test_audit_flag_overrides_global_switch(self):
        # audit never enabled globally; the system-level flag suffices
        system = TackerSystem(audit=True)
        system.run_pair("resnet50", "fft", n_queries=3)
        assert sum(audit.summary().values()) > 0


class TestEngineDifferential:
    def test_sampled_fastpath_reruns_match_engine(self, gpu):
        audit.enable()
        audit.configure(audit.AuditConfig(differential_every=1))
        if not fastpath.enabled():
            pytest.skip("fast path disabled via REPRO_FASTPATH")
        launch = mriq().launch()
        blocks = [dict(launch.block_template)]
        from repro.gpusim.sm import BlockSpec

        run_blocks(gpu, [BlockSpec(g) for g in blocks])
        assert audit.summary().get("engine-equivalence", 0) > 0

    def test_divergent_fastpath_detected(self, monkeypatch, gpu):
        audit.enable()
        audit.configure(audit.AuditConfig(differential_every=1))
        if not fastpath.enabled():
            pytest.skip("fast path disabled via REPRO_FASTPATH")
        original = fastpath.run_blocks

        def skewed(sm, bandwidth, blocks):
            result = original(sm, bandwidth, blocks)
            return replace(result, finish_time=result.finish_time * 1.01)

        monkeypatch.setattr(fastpath, "run_blocks", skewed)
        launch = mriq().launch()
        from repro.gpusim.sm import BlockSpec

        with pytest.raises(AuditViolation, match="engine-equivalence"):
            run_blocks(gpu, [BlockSpec(dict(launch.block_template))])


def _square(x):
    return x * x


def _worker_pid(x):
    return (x, os.getpid())


class TestParallelDifferential:
    def test_deterministic_fn_passes(self):
        audit.enable()
        assert parallel_map(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert audit.summary().get("parallel-serial-equivalence", 0) > 0

    def test_worker_dependent_fn_detected(self):
        audit.enable()
        with pytest.raises(AuditViolation, match="parallel-serial"):
            parallel_map(_worker_pid, [1, 2], workers=2)

"""Tests for the decision log records and JSONL round-trip."""

import hashlib
import json

import pytest

from repro.errors import ConfigError
from repro.gpusim import fastpath
from repro.models.zoo import model_by_name
from repro.runtime.replay import load_scenario, serve_trace, synthesize_trace
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application
from repro.telemetry import (
    DecisionRecord,
    FusionCandidate,
    ReservationEntry,
    ReservationRecord,
    decision_log_jsonl,
    validate_decision_jsonl,
    write_decision_log,
)


def fused_record(index=0) -> DecisionRecord:
    candidate = FusionCandidate(
        be_app="fft", tc="tgemm_l", cd="fft", ttc_ms=2.0, tcd_ms=3.0,
        tk_fuse_ms=4.0, lc_is_tc=True, extra_lc_ms=2.0, gain_ms=1.0,
        admissible=True,
    )
    reservation = ReservationRecord(
        qos_ms=50.0,
        entries=(ReservationEntry(
            service="Resnet50", arrival_ms=0.0, elapsed_ms=1.0,
            remaining_ms=10.0, reserved_ahead_ms=0.0, slack_ms=39.0,
        ),),
        headroom_ms=39.0, guard_margin_ms=0.0, thr_ms=39.0,
    )
    return DecisionRecord(
        index=index, now_ms=1.0, policy="tacker", kind="fused",
        lc_service="Resnet50", lc_kernel="tgemm_l", be_app="fft",
        fused_kernel="fused_tgemm_l_fft", thr_ms=39.0, gain_ms=1.0,
        candidates=(candidate,), reservation=reservation,
    )


class TestRecords:
    def test_chosen_candidate(self):
        record = fused_record()
        chosen = record.chosen_candidate()
        assert chosen is not None and chosen.be_app == "fft"

    def test_chosen_candidate_none_for_lc(self):
        record = DecisionRecord(
            index=0, now_ms=0.0, policy="tacker", kind="lc",
        )
        assert record.chosen_candidate() is None

    def test_gain_identity_of_the_example(self):
        # Tgain = Tcd - (Tk_fuse - Ttc) per Eq. 8.
        chosen = fused_record().chosen_candidate()
        assert chosen.gain_ms == pytest.approx(
            chosen.tcd_ms - (chosen.tk_fuse_ms - chosen.ttc_ms)
        )


class TestServedLog:
    def test_served_decision_log_bytes_pinned(self):
        """A served steady trace's decision log, byte for byte."""
        if not fastpath.enabled():
            pytest.skip("fast path disabled via REPRO_FASTPATH")
        scenario = load_scenario("steady")
        system = TackerSystem(
            config=scenario.run_config(), telemetry=True, store=None
        )
        for lc_name in scenario.lc_services:
            for be_name in scenario.be_apps:
                system.prepare_pair(
                    model_by_name(lc_name),
                    be_application(be_name, system.library),
                )
        trace = synthesize_trace(
            scenario, system.library, system.oracle, n_queries=40
        )
        result = serve_trace(system, trace, scenario.be_apps, "tacker")
        text = result.telemetry.decision_jsonl()
        assert len(text.splitlines()) == 5922
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a7949036b13df723dedb61c3b726e054f9e779f289f2b78e4f1cd70b5a9d6d69"
        )


class TestJsonl:
    def test_jsonl_lines_parse_and_sort_keys(self):
        text = decision_log_jsonl([fused_record(0), fused_record(1)])
        lines = text.strip().split("\n")
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert list(record) == sorted(record)
        assert record["final_kind"] == "fused"

    def test_empty_log_is_empty_string(self):
        assert decision_log_jsonl([]) == ""

    def test_write_and_validate_roundtrip(self, tmp_path):
        path = str(tmp_path / "decisions.jsonl")
        write_decision_log([fused_record(0), fused_record(1)], path)
        assert validate_decision_jsonl(path) == 2

    def test_validator_rejects_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"index": 0}\n')
        with pytest.raises(ConfigError, match="missing field"):
            validate_decision_jsonl(str(path))

    def test_validator_rejects_unknown_kind(self, tmp_path):
        record = json.loads(decision_log_jsonl([fused_record()]).strip())
        record["kind"] = record["final_kind"] = "warp"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="unknown kind"):
            validate_decision_jsonl(str(path))

    def test_validator_rejects_fused_without_candidate(self, tmp_path):
        record = json.loads(decision_log_jsonl([fused_record()]).strip())
        record["candidates"] = []
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ConfigError, match="admitted candidate"):
            validate_decision_jsonl(str(path))


class TestZooKinds:
    """The scheduler-zoo decision kinds: hfused, spatial, chain."""

    def record_dict(self, **overrides):
        record = json.loads(decision_log_jsonl([fused_record()]).strip())
        record.update(overrides)
        return record

    def write(self, tmp_path, record):
        path = tmp_path / "decisions.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return str(path)

    def test_hfused_with_second_be_validates(self, tmp_path):
        record = self.record_dict(
            kind="hfused", final_kind="hfused", be_app2="mriq",
        )
        assert validate_decision_jsonl(self.write(tmp_path, record)) == 1

    def test_hfused_without_be_app2_rejected(self, tmp_path):
        record = self.record_dict(kind="hfused", final_kind="hfused")
        record.pop("be_app2", None)
        with pytest.raises(ConfigError, match="be_app2"):
            validate_decision_jsonl(self.write(tmp_path, record))

    def test_spatial_validates(self, tmp_path):
        record = self.record_dict(kind="spatial", final_kind="spatial")
        assert validate_decision_jsonl(self.write(tmp_path, record)) == 1

    def test_chain_with_riders_validates(self, tmp_path):
        record = self.record_dict(
            kind="chain", final_kind="chain", riders=["mriq", "cutcp"],
        )
        assert validate_decision_jsonl(self.write(tmp_path, record)) == 1

    def test_chain_without_riders_rejected(self, tmp_path):
        record = self.record_dict(
            kind="chain", final_kind="chain", riders=[],
        )
        with pytest.raises(ConfigError, match="without riders"):
            validate_decision_jsonl(self.write(tmp_path, record))

    def test_non_string_riders_rejected(self, tmp_path):
        record = self.record_dict(riders=[7])
        with pytest.raises(ConfigError, match="riders"):
            validate_decision_jsonl(self.write(tmp_path, record))

"""The table-driven scheduling step against its reference twin.

``TackerPolicy.decide`` serves each decision from tables valid for one
model version: the Eq. 8 table, the query-pinned Eq. 9 and
fusion-reserve suffixes, and the predicted-ms memo.
``TackerPolicy._decide_reference`` is the straightforward step it
replaced.  The two must agree bit for bit.  That covers byte-equal
summaries and decision logs over the whole scenario library, a forced
mid-run model refit, and fault plans (which run the reference).  The
invariant auditor's sampled recompute must leave no trace in the policy.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro import audit
from repro.errors import AuditViolation
from repro.models.zoo import model_by_name
from repro.predictor.online import OnlineModelManager
from repro.runtime.faults import FaultPlan
from repro.runtime.policies import GuardConfig
from repro.runtime.policies.tacker import TackerPolicy
from repro.runtime.query import Query
from repro.runtime.replay import load_scenario, serve_trace, synthesize_trace
from repro.runtime.server import ColocationServer
from repro.runtime.system import TackerSystem
from repro.runtime.workload import be_application, query_instances

SCENARIOS = sorted(
    path.stem
    for path in (Path(__file__).resolve().parents[2] / "scenarios").glob(
        "*.json"
    )
)
POLICIES = ("tacker", "multifuse")


@pytest.fixture(autouse=True)
def clean_audit():
    audit.reset()
    yield
    audit.reset()


#: queries of the shorter ``steady`` trace the single-case tests serve
SHORT = 60


@pytest.fixture(scope="module")
def traces():
    """Trace per scenario (quick size unless ``queries`` is given),
    synthesized once per module."""
    cache = {}

    def get(name, queries=None):
        if (name, queries) not in cache:
            scenario = load_scenario(name)
            system = TackerSystem(config=scenario.run_config())
            cache[name, queries] = (scenario, synthesize_trace(
                scenario, system.library, system.oracle,
                n_queries=queries or scenario.n_queries(quick=True),
            ))
        return cache[name, queries]
    return get


def build(scenario, *, telemetry=False, guard=None, audit_on=False):
    system = TackerSystem(
        config=scenario.run_config(), telemetry=telemetry, guard=guard,
        audit=audit_on,
    )
    for lc in scenario.lc_services:
        for be in scenario.be_apps:
            system.prepare_pair(
                model_by_name(lc), be_application(be, system.library)
            )
    return system


def serve(scenario, trace, policy, *, jsonl=True, **options):
    """One serve on a fresh system; the outputs the twins must share.

    ``jsonl=False`` keeps the decision records themselves instead of
    their JSONL rendering: record equality is what the JSONL bytes
    render, at a twentieth of the cost on the larger scenarios.
    """
    system = build(scenario, **options)
    result = serve_trace(system, trace, scenario.be_apps, policy)
    session = result.telemetry
    decisions = None
    if session is not None:
        decisions = (
            session.decision_jsonl() if jsonl else list(session.decisions)
        )
    return {
        "summary": json.dumps(result.summary_dict(), sort_keys=True),
        "chains": result.n_chain_kernels,
        "decisions": decisions,
        "version": system.models.version,
    }


@pytest.fixture
def reference_path(monkeypatch):
    """Route every Tacker-family decision through the reference twin."""
    def use():
        monkeypatch.setattr(
            TackerPolicy, "decide", TackerPolicy._decide_reference
        )
    return use


def twins(scenario, trace, policy, reference_path, **options):
    table = serve(scenario, trace, policy, **options)
    reference_path()
    reference = serve(scenario, trace, policy, **options)
    return table, reference


class TestCorpus:
    """Table path == reference twin on every scenario, at quick size.

    First with telemetry on: summaries and decision logs must match,
    as JSONL bytes on ``steady`` and as records elsewhere.  Then with
    the guard on and telemetry off (the fleet's production path):
    summaries, which carry the guard's per-mode decision counts and the
    admission counters, must be byte-equal.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario_name", SCENARIOS)
    def test_telemetry_on(self, traces, reference_path, scenario_name,
                          policy):
        scenario, trace = traces(scenario_name)
        table, reference = twins(
            scenario, trace, policy, reference_path,
            jsonl=scenario_name == "steady", telemetry=True,
        )
        assert table["decisions"]
        assert table == reference

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("scenario_name", SCENARIOS)
    def test_guard_on(self, traces, reference_path, scenario_name, policy):
        scenario, trace = traces(scenario_name)
        table, reference = twins(scenario, trace, policy, reference_path,
                                 guard=GuardConfig())
        assert '"guard_mode_decisions": {}' not in table["summary"]
        assert table == reference

    def test_guard_and_telemetry_on(self, traces, reference_path):
        scenario, trace = traces("steady")
        table, reference = twins(scenario, trace, "tacker", reference_path,
                                 telemetry=True, guard=GuardConfig())
        assert '"guard_mode":"fuse"' in table["decisions"]
        assert table == reference


class TestModelRefit:
    def test_forced_refit_rebuilds_tables(self, traces, reference_path,
                                          monkeypatch):
        """A mid-run refit bumps ``models.version``; the rebuilt tables
        still match the reference."""
        observe = OnlineModelManager.observe_fused
        calls = {"n": 0}

        def forced(self, fused, xori_tc, xori_cd, actual_cycles):
            calls["n"] += 1
            if calls["n"] in (3, 12):
                # far off the prediction: the >10%-error refit path fires
                actual_cycles *= 1.6
            return observe(self, fused, xori_tc, xori_cd, actual_cycles)

        monkeypatch.setattr(OnlineModelManager, "observe_fused", forced)
        scenario, trace = traces("steady", SHORT)
        built = []
        eq8_entry = TackerPolicy._eq8_entry

        def counting_entry(self, *args):
            built.append(self.models.version)
            return eq8_entry(self, *args)

        monkeypatch.setattr(TackerPolicy, "_eq8_entry", counting_entry)
        table = serve(scenario, trace, "tacker", telemetry=True)
        calls["n"] = 0
        assert table["version"] >= 2
        # entries were built under more than one model version
        assert len(set(built)) >= 2
        reference_path()
        reference = serve(scenario, trace, "tacker", telemetry=True)
        assert table == reference


class TestFaultPlans:
    def test_perturbed_predictions_take_the_reference_path(
        self, monkeypatch
    ):
        calls = {"reference": 0, "table": 0}
        reference = TackerPolicy._decide_reference
        entry = TackerPolicy._eq8_entry

        def counting_reference(self, *args):
            calls["reference"] += 1
            return reference(self, *args)

        def counting_entry(self, *args):
            calls["table"] += 1
            return entry(self, *args)

        monkeypatch.setattr(TackerPolicy, "_decide_reference",
                            counting_reference)
        monkeypatch.setattr(TackerPolicy, "_eq8_entry", counting_entry)
        system, model, policy, _, _ = _policy_and_apps()
        result = system.run_custom(
            model, ["fft"], policy, n_queries=20,
            faults=FaultPlan(predictor_noise=0.2, predictor_bias=0.9),
        )
        assert result.n_fused_kernels > 0
        assert calls["reference"] == policy.decisions > 0
        assert calls["table"] == 0


class TestAuditTwin:
    def _snapshot(self, policy):
        guard = policy.guard
        return (
            policy._rr, policy._reordered_at, policy.decisions,
            policy.fusions, policy.telemetry,
            len(policy.telemetry.decisions) if policy.telemetry else None,
            None if guard is None else (
                dict(guard.mode_decisions), guard.mode, guard.risk,
                len(guard.transitions),
            ),
        )

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_recompute_is_checked_and_leaves_no_trace(
        self, traces, monkeypatch, policy_name
    ):
        recompute = TackerPolicy.reference_decision
        seen = []

        def snapshotting(policy, now_ms, active, be_apps):
            before = self._snapshot(policy)
            action = recompute(policy, now_ms, active, be_apps)
            assert self._snapshot(policy) == before
            seen.append(action)
            return action

        monkeypatch.setattr(TackerPolicy, "reference_decision", snapshotting)
        scenario, trace = traces("steady", SHORT)
        table = serve(scenario, trace, policy_name, telemetry=True,
                      guard=GuardConfig(), audit_on=True)
        checks = audit.summary().get("decide-reference-twin", 0)
        assert checks == len(seen) > 10
        assert {a.kind for a in seen if a is not None} >= {"lc", "be"}
        # the audited run is the unaudited run
        audit.reset()
        plain = serve(scenario, trace, policy_name, telemetry=True,
                      guard=GuardConfig())
        assert table == plain

    def test_divergent_table_path_is_caught(self, traces, monkeypatch):
        """A table entry that disagrees with the reference fails the
        ``decide-reference-twin`` invariant."""
        entry = TackerPolicy._eq8_entry

        def skewed(self, *args):
            built = entry(self, *args)
            built.be_ms *= 1.01
            return built

        monkeypatch.setattr(TackerPolicy, "_eq8_entry", skewed)
        monkeypatch.setattr(
            "repro.audit.scheduler.TWIN_EVERY", 1
        )
        scenario, trace = traces("steady", SHORT)
        with pytest.raises(AuditViolation) as caught:
            serve(scenario, trace, "tacker", audit_on=True)
        assert caught.value.invariant == "decide-reference-twin"


def _policy_and_apps(be_name="fft"):
    system = TackerSystem()
    model = model_by_name("resnet50")
    system.prepare_pair(model, be_application(be_name, system.library))
    policy = system.make_policy("tacker")
    apps = [be_application(be_name, system.library)]
    instances = query_instances(model, system.library)
    return system, model, policy, apps, instances


def _move_head_grid(app):
    grid = app.head.grid
    while app.head.grid == grid:
        app.complete_head(0.0)


class TestPinnedQuirks:
    """Behaviours the tables reproduce rather than "fix"."""

    def test_reserve_priced_from_heads_at_first_build(self):
        """The reserve suffix is cached per (sequence, BE-name tuple) and
        priced from the BE heads present when it was first built; a
        later query with the same sequence reuses it even though the
        heads have moved on."""
        system, model, policy, apps, instances = _policy_and_apps()
        first = Query(model, 0.0, instances)
        later = Query(model, 0.0, instances)
        priced = policy._fusion_reserve_ms(first, apps)
        _move_head_grid(apps[0])
        assert policy._fusion_reserve_ms(later, apps) == priced
        assert later._reserve_pin[2] is first._reserve_pin[2]
        fresh = system.make_policy("tacker")
        assert fresh._fusion_reserve_ms(Query(model, 0.0, instances),
                                        apps) != priced

    def test_head_grid_is_part_of_the_eq8_key(self):
        """BE heads are input-scaled per cursor: one LC kernel meets the
        same BE kernel at several grids, each its own Eq. 8 entry."""
        system, model, policy, apps, instances = _policy_and_apps()
        app = apps[0]
        tc = next(i for i in instances if i.kind == "tc" and i.fusable)
        query = Query(model, 0.0, (tc,))
        grids = set()
        for _ in range(12):
            grids.add(app.head.grid)
            policy.decide(0.0, [query], apps)
            policy._reordered_at = None
            app.complete_head(0.0)
        entries = {
            key[4]: entry for key, entry in policy._eq8.items()
            if key[:3] == (tc.name, tc.grid, app.name)
        }
        assert set(entries) == grids and len(grids) > 1
        assert len({entry.be_ms for entry in entries.values()}) == len(grids)


class TestQueryPickling:
    def test_pins_do_not_travel(self):
        system, model, policy, apps, instances = _policy_and_apps()
        query = Query(model, 0.0, instances)
        remaining = policy.headroom.predicted_remaining_ms(query)
        reserve = policy._fusion_reserve_ms(query, apps)
        assert query._remaining_pin is not None
        assert query._reserve_pin is not None
        clone = pickle.loads(pickle.dumps(query))
        assert clone._remaining_pin is None and clone._reserve_pin is None
        assert clone.qid == query.qid and clone.cursor == query.cursor
        assert clone.sequence_key == query.sequence_key
        # the live query keeps its pins, and the clone re-pins on use
        assert query._remaining_pin is not None
        assert policy.headroom.predicted_remaining_ms(clone) == remaining
        assert policy._fusion_reserve_ms(clone, apps) == reserve


class TestTrueRemaining:
    def test_memo_is_bit_identical_and_asks_once(self, monkeypatch):
        system, model, policy, apps, instances = _policy_and_apps()
        server = ColocationServer(system.gpu, oracle=system.oracle,
                                  policy=policy)
        queries = [Query(model, 0.0, instances) for _ in range(3)]
        queries[1].advance(1.0)
        expected = [
            sum(system.oracle.solo_ms(i.kernel, i.grid)
                for i in q.remaining)
            for q in queries
        ]
        asked = []
        solo_ms = system.oracle.solo_ms

        def counting(kernel, grid):
            asked.append((kernel.name, grid))
            return solo_ms(kernel, grid)

        monkeypatch.setattr(system.oracle, "solo_ms", counting)
        for _ in range(3):
            assert [server._true_remaining_ms(q) for q in queries] == expected
        # two distinct (sequence, cursor) keys, each summed once
        assert len(asked) == len(instances) + len(instances) - 1

"""Smoke tests of the benchmark at tiny sizes.

Run with ``python -m pytest perfbench``.  They check the manifest
against the contract, that every metric is reported with its unit, that
a dropped query or a perturbed simulated value counts as a failure, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from checks import Ledger, Outcome, problems  # noqa: E402
from tracer import Aggregate, Tracer  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_committed_manifest_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()


def test_manifest_respects_contract_limits():
    manifest = spec.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= manifest["run_seconds"] <= 60
    names = [w["name"] for w in manifest["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in manifest[section]]
        for metric in manifest[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(manifest)) <= 64 * 1024


def _outcome(**changes) -> Outcome:
    fields = dict(
        trace_queries=10, served=10,
        sim={"sim_p99_ms": 45.0, "sim_be_throughput": 0.8,
             "qos_met_pct": 100.0, "sim_node_seconds": 3.2,
             "node_epochs": 3.2},
        counters={"launches": 120, "alerts": 0},
        summary_digest="abc",
    )
    fields.update(changes)
    return Outcome(**fields)


def test_dropped_query_counts_as_failure():
    reference = _outcome()
    dropped = _outcome(served=9)
    assert any("conservation" in p for p in problems(dropped, reference))
    ledger = Ledger()
    assert ledger.check("reference", reference)
    assert not ledger.check("dropped", dropped, reference)
    assert (ledger.attempted, ledger.failed) == (20, 10)
    assert not ledger.correct


def test_perturbed_sim_value_counts_as_failure():
    reference = _outcome()
    perturbed = _outcome(sim={**reference.sim, "sim_p99_ms": 45.000001})
    assert any("sim_p99_ms" in p for p in problems(perturbed, reference))
    ledger = Ledger()
    ledger.check("perturbed", perturbed, reference)
    assert ledger.failed == 10


def test_changed_work_counter_counts_as_failure():
    first = _outcome(work={"oracle_hits": 5})
    second = _outcome(work={"oracle_hits": 6})
    assert problems(second, first, work_reference=first)


def test_tracer_folds_hot_calls_and_self_time():
    tracer = Tracer()
    inner = tracer.hot_wrap("inner", lambda x: x + 1)
    outer = tracer.hot_wrap("outer", lambda x: inner(inner(x)))
    with tracer.span("root"):
        assert outer(1) == 3
    assert tracer.hot["inner"].count == 2
    outer_agg = tracer.hot["outer"]
    assert outer_agg.self_ns <= outer_agg.total_ns
    (span,) = tracer.spans
    assert span[0] == "root" and span[4] <= span[2] - span[1]


def test_aggregate_quantiles_track_the_distribution():
    agg = Aggregate()
    for ns in [1000] * 98 + [100_000] * 2:
        agg.add(ns, ns)
    assert 900 <= agg.quantile_ns(0.5) <= 1100
    assert 90_000 <= agg.quantile_ns(0.99) <= 110_000


@pytest.mark.parametrize("workload", [w.name for w in spec.WORKLOADS])
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    line = last_json(run_bench("--workload", workload, "--seed", "3",
                               "--seconds", "0.5", "--trace", "0", "--tiny"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m.name: m.unit for m in spec.END_TO_END
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", ["steady-observed", "fleet-diurnal"])
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    line = last_json(run_bench("--workload", workload, "--seed", "3",
                               "--seconds", "0.5", "--trace", "1", "--tiny"))
    assert line["correct"] and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m.name: m.unit for m in spec.PER_LAYER
    }
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert values["policy.decisions"] > 0
    assert values["server.launches"] > 0
    if workload == "fleet-diurnal":
        assert values["fleet.node_epochs"] > 0
    else:
        assert values["observer.telemetry_records"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "steady", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

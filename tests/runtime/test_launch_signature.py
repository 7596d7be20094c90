"""Cached launch signatures: store compatibility and a reference twin.

``KernelLaunch.signature`` caches the launch's ``repr`` digest on the
object, and the ``hfuse`` policy reuses one PTB launch object per
(kernel, grid) shape, so the oracle's co-run memo hits stay O(1).  These
tests pin the cache to the reference ``sha256(repr(launch))`` digest
(so every persisted store key keeps resolving), prove a served ``hfuse``
run byte-identical to the reference path that rebuilds launches and
re-hashes on every lookup, and gate the work counters: one digest per
launch object, one PTB transform request per kernel name.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from collections import Counter

import pytest

from repro.errors import TackerError
from repro.fusion.ptb import transform
from repro.fusion.search import FusionSearch
from repro.gpusim import gpu as gpu_module
from repro.gpusim.gpu import KernelLaunch
from repro.kernels.gemm import canonical_gemms
from repro.kernels.parboil import fft, mriq
from repro.models.zoo import model_by_name
from repro.runtime import oracle as oracle_module
from repro.runtime.oracle import DurationOracle, OracleStore
from repro.runtime.policies.hfuse import HFusePolicy
from repro.runtime.replay import load_scenario, serve_trace, synthesize_trace
from repro.runtime.system import TackerSystem, clear_offline_catalog
from repro.runtime.workload import be_application

QUERIES = 60


def reference_digest(launch: KernelLaunch) -> str:
    """The store-key digest as first defined: no caching anywhere."""
    return hashlib.sha256(repr(launch).encode()).hexdigest()[:20]


def rebuilding_persistent_launch(self, instance):
    """The pre-memo ``HFusePolicy._persistent_launch``: a fresh launch
    object per call, so every oracle lookup re-hashes its operands."""
    try:
        kernel = self._ptb(instance.name)
    except TackerError:
        return None
    return kernel.launch(instance.grid)


@pytest.fixture(scope="module")
def launches(gpu):
    a = transform(mriq(), gpu)
    b = transform(fft(), gpu)
    return a.launch(a.ir.default_grid), b.launch(b.ir.default_grid)


class TestStoreCompatibility:
    def test_cached_digest_is_reference_digest(self, launches):
        for launch in launches:
            assert launch.signature == reference_digest(launch)
            assert launch.signature is launch.signature

    def test_cache_invisible_to_repr_eq_and_pickle(self, gpu, launches):
        launch = launches[0]
        twin = transform(mriq(), gpu).launch(launch.grid_blocks)
        assert "signature" not in twin.__dict__
        _ = launch.signature
        assert "signature" in launch.__dict__
        assert repr(launch) == repr(twin)
        assert launch == twin
        assert launch.signature not in repr(launch)
        blob = pickle.dumps(launch)
        assert launch.signature.encode() not in blob
        clone = pickle.loads(blob)
        assert "signature" not in clone.__dict__
        assert clone == launch
        assert clone.signature == launch.signature

    def test_reference_keyed_store_resolves_as_hits(self, gpu, launches,
                                                     tmp_path):
        a, b = launches
        ref_a, ref_b = reference_digest(a), reference_digest(b)
        store = OracleStore(tmp_path / "oracle.json")
        store.solo[f"launch|{ref_a}"] = 1234.0
        store.fused[f"corun|concurrent|{ref_a}|{ref_b}|[]"] = [
            10.0, 6.0, 7.0, 9.0, 10.0,
        ]
        store._dirty = True
        store.save()

        oracle = DurationOracle(gpu, store=OracleStore(store.path))
        fresh_a = transform(mriq(), gpu).launch(a.grid_blocks)
        fresh_b = transform(fft(), gpu).launch(b.grid_blocks)
        result = oracle.corun_policy("concurrent", fresh_a, fresh_b)
        assert result.duration_cycles == 10.0
        assert result.finish_a_cycles == 9.0
        assert oracle.launch_cycles(fresh_a) == 1234.0
        assert oracle.persistent_hits == 2
        assert oracle.misses == 0
        assert oracle.corun_policy("concurrent", fresh_a, fresh_b) is result
        assert oracle.hits == 1

    def test_fused_store_key_text_unchanged(self, gpu, monkeypatch):
        tc = transform(canonical_gemms()["tgemm_l"], gpu)
        cd = transform(fft(), gpu)
        fused = FusionSearch(gpu).search(tc, cd).best.fused

        def short(text: str) -> str:
            return hashlib.sha256(text.encode()).hexdigest()[:16]

        expected = (
            f"{fused.name}|"
            + short(f"{fused.name}|{short(repr(tc.ir))}|{short(repr(cd.ir))}")
            + "|ptb|1000|2000"
        )
        hashed = []
        kernel_signature = oracle_module._kernel_signature
        monkeypatch.setattr(
            oracle_module, "_kernel_signature",
            lambda kernel: hashed.append(kernel.name)
            or kernel_signature(kernel),
        )
        oracle = DurationOracle(gpu)
        for _ in range(3):
            key = oracle._fused_store_key(fused, "ptb", 1000, 2000)
            assert key == expected
        assert sorted(hashed) == sorted([tc.ir.name, cd.ir.name])


def prepared_system(be_names):
    """A store-less system with every pair of the steady trace prepared."""
    scenario = load_scenario("steady")
    system = TackerSystem(
        config=scenario.run_config(), telemetry=True, store=None,
    )
    for lc_name in scenario.lc_services:
        for be_name in be_names:
            system.prepare_pair(
                model_by_name(lc_name),
                be_application(be_name, system.library),
            )
    trace = synthesize_trace(
        scenario, system.library, system.oracle, n_queries=QUERIES
    )
    return system, trace


def serve_hfuse(be_names=("sgemm", "mriq")):
    # Each arm prepares from an empty offline catalog, so both pay the
    # same preparation lookups and their oracle counters compare.
    clear_offline_catalog()
    system, trace = prepared_system(be_names)
    result = serve_trace(system, trace, be_names, "hfuse")
    oracle = system.oracle
    return {
        "summary": json.dumps(result.summary_dict(), sort_keys=True),
        "decisions": result.telemetry.decision_jsonl(),
        "oracle": (oracle.hits, oracle.misses, oracle.persistent_hits),
        "hfused": result.n_hfused_kernels,
    }


class TestReferenceTwin:
    def test_cached_path_matches_reference_path(self, monkeypatch):
        cached = serve_hfuse()
        assert cached["hfused"] > 0
        with monkeypatch.context() as patch:
            patch.setattr(KernelLaunch, "signature",
                          property(reference_digest))
            patch.setattr(HFusePolicy, "_persistent_launch",
                          rebuilding_persistent_launch)
            reference = serve_hfuse()
        assert cached["summary"] == reference["summary"]
        assert cached["decisions"] == reference["decisions"]
        assert cached["oracle"] == reference["oracle"]


class TestWorkCounters:
    """Machine-independent gate on the co-run lookup cost."""

    def test_one_digest_per_launch_one_transform_per_name(
        self, monkeypatch
    ):
        be_names = ("sgemm", "mriq", "fft")
        rejected = "fft"
        system, trace = prepared_system(be_names)

        digested: list = []
        digest = gpu_module.launch_digest

        def counting_digest(launch):
            digested.append(launch)  # keeps ids unique while counted
            return digest(launch)

        ptb_calls: Counter = Counter()
        ptb = system.ptb

        def counting_ptb(name):
            ptb_calls[name] += 1
            if name == rejected:
                raise TackerError(f"{name} rejected for this test")
            return ptb(name)

        lookups = 0
        corun_policy = system.oracle.corun_policy

        def counting_corun_policy(*args, **kwargs):
            nonlocal lookups
            lookups += 1
            return corun_policy(*args, **kwargs)

        monkeypatch.setattr(gpu_module, "launch_digest", counting_digest)
        monkeypatch.setattr(system, "ptb", counting_ptb)
        monkeypatch.setattr(system.oracle, "corun_policy",
                            counting_corun_policy)
        result = serve_trace(system, trace, be_names, "hfuse")

        assert result.n_hfused_kernels > 0
        assert lookups > 0
        assert len({id(launch) for launch in digested}) == len(digested)
        assert len(digested) < lookups
        assert set(ptb_calls) == {"sgemm", "mriq", rejected}
        assert set(ptb_calls.values()) == {1}

"""The per-process offline catalog: isolation, equivalence and its twin.

A process prepares each (TC, CD) pair once; later systems install the
catalogued products, with private copies of the trained models.  These
tests pin that a catalog-served system is indistinguishable from a
freshly prepared one, that online refits never cross systems, that
systems with a custom library, profile noise or a wrapped oracle
bypass the catalog, and that the audit twin catches a skewed entry.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import audit
from repro.config import V100
from repro.errors import AuditViolation
from repro.gpusim import fastpath
from repro.kernels.library import default_library
from repro.models.zoo import model_by_name
from repro.predictor.kernel_model import ProfileNoise
from repro.predictor.linear import LinearModel
from repro.predictor.online import OnlineModelManager
from repro.runtime import system as system_module
from repro.runtime.autoscale import AutoscaleSpec, run_autoscale
from repro.runtime.system import (
    OFFLINE_CATALOG,
    TackerSystem,
    clear_offline_catalog,
)
from repro.runtime.workload import be_application

#: (LC service, BE app) co-locations, with the BE app on either side.
PAIRS = (("resnet50", "fft"), ("resnet50", "tgemm_l"), ("vgg16", "mriq"))
#: one co-location keeps audited (unmemoized) re-preparations short
SMALL = PAIRS[:1]
#: a (TC, CD) pair the offline search finds faster run sequentially
REJECTED = ("tgemm_s", "sgemm")


@pytest.fixture(autouse=True)
def empty_catalog():
    clear_offline_catalog()
    yield
    clear_offline_catalog()


@pytest.fixture
def audited():
    audit.reset()
    audit.enable()
    yield
    audit.reset()


def prepared(pairs=PAIRS, **kwargs) -> TackerSystem:
    system = TackerSystem(store=None, **kwargs)
    for lc_name, be_name in pairs:
        system.prepare_pair(
            model_by_name(lc_name), be_application(be_name, system.library)
        )
    assert system.prepare_fusion(*REJECTED) is None
    return system


def products(system: TackerSystem) -> dict:
    """Everything preparation leaves in a system, as comparable text."""
    models = system.models
    return {
        "searched": sorted(system._searched),
        "artifacts": sorted(system.artifacts),
        "compiled": sorted(
            (a.key, a.source_text, a.compile_ms) for a in system.compiler
        ),
        "compile_ms": system.compiler.total_compile_ms,
        "rejected": sorted(system.compiler._rejected),
        "ptb": repr(sorted(system._ptb.items())),
        "kernel_models": repr(sorted(
            (name, m.fit_state()) for name, m in models._kernel_models.items()
        )),
        "fused_models": repr(sorted(
            (key, m.fit_state()) for key, m in models._fused_models.items()
        )),
        "training_ms": models.total_training_ms,
        "launch_signatures": sorted(
            fused.launch(fused.tc.ir.default_grid,
                         fused.cd.ir.default_grid).signature
            for fused in system.artifacts.values()
        ),
    }


def node_rows(result) -> list:
    """Per-node-epoch stats with each latency sketch as its bins."""
    return [
        repr({
            **vars(stats),
            "sketch": (stats.sketch.counts.tolist(), stats.sketch.overflow,
                       stats.sketch.n, stats.sketch.sum),
        })
        for stats in result.node_stats
    ]


def fused_pair(system: TackerSystem):
    key = sorted(system.artifacts)[0]
    return system.artifacts[key], system.models.fused_model(
        system.artifacts[key]
    )


class TestEquivalence:
    def test_catalog_served_system_equals_fresh_one(self):
        fresh = prepared()
        assert OFFLINE_CATALOG.pairs
        served = prepared()
        assert fresh.artifacts, "the pair set must include fusable pairs"
        assert fresh.compiler._rejected, "and pairs the search rejected"
        assert products(served) == products(fresh)
        # the artifacts are shared, the models are the system's own
        for key, fused in served.artifacts.items():
            assert fused is fresh.artifacts[key]
            mine = served.models.fused_model(fused)
            assert mine is not fresh.models.fused_model(fused)
            assert mine.oracle is served.oracle
            assert mine.tc_model is served.models.kernel_model(fused.tc.ir)
            assert mine.tc_model.oracle is served.oracle

    def test_lazily_trained_kernel_models_are_catalogued(self):
        first = TackerSystem(store=None)
        kernel = first.library.get("relu")
        trained = first.models.kernel_model(kernel)
        second = TackerSystem(store=None)
        copy = second.models.kernel_model(second.library.get("relu"))
        assert copy is not trained
        assert copy.oracle is second.oracle
        assert repr(copy.fit_state()) == repr(trained.fit_state())
        assert second.oracle.misses == 0  # nothing re-profiled

    def test_quick_diurnal_autoscale_matches_fresh_preparation(
        self, monkeypatch
    ):
        spec = AutoscaleSpec(scenario="diurnal", rate_nodes=2,
                             span_ms=6000.0, epoch_ms=2000.0)
        served = run_autoscale(spec)
        # Reference arm: every node-epoch's system prepares from an
        # empty catalog, exactly as before the catalog existed.
        init = TackerSystem.__init__

        def cold_init(self, *args, **kwargs):
            clear_offline_catalog()
            init(self, *args, **kwargs)

        monkeypatch.setattr(TackerSystem, "__init__", cold_init)
        fresh = run_autoscale(spec)
        assert len(served.node_stats) > 2
        assert json.dumps(served.summary_dict(), sort_keys=True) == (
            json.dumps(fresh.summary_dict(), sort_keys=True)
        )
        assert node_rows(served) == node_rows(fresh)
        assert served.decisions == fresh.decisions


class TestIsolation:
    def test_refit_in_one_system_leaves_another_unchanged(self):
        a = prepared()
        b = prepared()
        fused, model_a = fused_pair(a)
        _, model_b = fused_pair(b)
        xtc = a.models.kernel_model(fused.tc.ir).predict(
            fused.tc.ir.default_grid)
        xcd = a.models.kernel_model(fused.cd.ir).predict(
            fused.cd.ir.default_grid)
        before = b.models.predict_fused(fused, xtc, xcd)
        state_b = repr(model_b.fit_state())
        a.models.observe_fused(fused, xtc, xcd, before * 3.0)
        assert model_a.update_count == 1 and a.models.version == 1
        assert a.models.predict_fused(fused, xtc, xcd) != before
        assert b.models.version == 0 and model_b.update_count == 0
        assert b.models.predict_fused(fused, xtc, xcd) == before
        assert repr(model_b.fit_state()) == state_b
        # the catalog kept the pristine model for the next system
        c = prepared()
        assert repr(fused_pair(c)[1].fit_state()) == state_b

    def test_error_bands_stay_per_system(self):
        a = prepared()
        b = prepared()
        a.models.record_error("relu", 1.0, 2.0)
        assert a.models.error_band() == 0.5
        assert b.models.error_band() == 0.0
        assert a.models.errors is not b.models.errors


class TestKey:
    def test_gpu_and_fast_path_switch_are_part_of_the_key(
        self, monkeypatch
    ):
        TackerSystem(store=None).prepare_fusion("tgemm_l", "fft")
        assert len(OFFLINE_CATALOG.pairs) == 1
        TackerSystem(V100, store=None).prepare_fusion("tgemm_l", "fft")
        assert len(OFFLINE_CATALOG.pairs) == 2
        monkeypatch.setenv(fastpath.FASTPATH_ENV, "0")
        TackerSystem(store=None).prepare_fusion("tgemm_l", "fft")
        assert len(OFFLINE_CATALOG.pairs) == 3


class TestBypass:
    def test_custom_library_bypasses(self):
        system = prepared(library=default_library())
        assert system.artifacts
        assert not OFFLINE_CATALOG.pairs
        assert not OFFLINE_CATALOG.kernel_models

    def test_noisy_models_bypass(self):
        reference = prepared()
        noisy = TackerSystem(store=None)
        noisy.models = OnlineModelManager(
            noisy.gpu, noise=ProfileNoise(scale=0.05), oracle=noisy.oracle
        )
        entries = dict(OFFLINE_CATALOG.pairs)
        for lc_name, be_name in PAIRS:
            noisy.prepare_pair(model_by_name(lc_name),
                               be_application(be_name, noisy.library))
        assert OFFLINE_CATALOG.pairs == entries
        fused, model = fused_pair(noisy)
        assert repr(model.fit_state()) != repr(
            reference.models.fused_model(fused).fit_state()
        )

    def test_wrapped_oracle_bypasses(self):
        prepared()
        entries = dict(OFFLINE_CATALOG.pairs)
        system = TackerSystem(store=None)

        class Wrapper:
            def __init__(self, oracle):
                self._oracle = oracle

            def __getattr__(self, name):
                return getattr(self._oracle, name)

        system.oracle = Wrapper(system.oracle)
        calls = []
        fresh = system._prepare_fresh
        system._prepare_fresh = lambda *key: calls.append(key) or fresh(*key)
        system.prepare_pair(model_by_name("resnet50"),
                            be_application("fft", system.library))
        assert calls and OFFLINE_CATALOG.pairs == entries

    def test_loaded_bundle_bypasses(self, tmp_path):
        source = prepared()
        path = source.save_models(str(tmp_path / "models.json"))
        system = TackerSystem(store=None)
        system.prepare_fusion("tgemm_l", "fft")
        assert system.load_models(path) > 0
        calls = []
        fresh = system._prepare_fresh
        system._prepare_fresh = lambda *key: calls.append(key) or fresh(*key)
        system.prepare_pair(model_by_name("vgg16"),
                            be_application("mriq", system.library))
        assert calls


class TestTwin:
    def test_clean_hits_pass_and_are_counted(self, audited):
        prepared(SMALL)
        assert "prepared-pair-twin" not in audit.summary()  # all misses
        prepared(SMALL)
        hits = len(OFFLINE_CATALOG.pairs)
        expected = -(-hits // system_module.PREPARE_TWIN_EVERY)
        assert audit.summary()["prepared-pair-twin"] == expected

    def test_skewed_entry_raises(self, audited, monkeypatch):
        monkeypatch.setattr(system_module, "PREPARE_TWIN_EVERY", 1)
        prepared(SMALL)
        entry = next(
            p for p in OFFLINE_CATALOG.pairs.values() if p.model is not None
        )
        line = entry.model._after.line
        entry.model._after.line = LinearModel(
            line.slope, line.intercept + 1e-12
        )
        with pytest.raises(AuditViolation) as raised:
            prepared(SMALL)
        assert raised.value.invariant == "prepared-pair-twin"

    def test_skewed_artifact_raises(self, audited, monkeypatch):
        monkeypatch.setattr(system_module, "PREPARE_TWIN_EVERY", 1)
        prepared(SMALL)
        key = next(
            k for k, p in OFFLINE_CATALOG.pairs.items()
            if p.artifact is not None
        )
        entry = OFFLINE_CATALOG.pairs[key]
        skewed = dataclasses.replace(
            entry.artifact, source_text=entry.artifact.source_text + "\n"
        )
        OFFLINE_CATALOG.pairs[key] = dataclasses.replace(
            entry, artifact=skewed
        )
        with pytest.raises(AuditViolation, match="prepared-pair-twin"):
            prepared(SMALL)

    def test_unaudited_hits_run_no_twin(self):
        audit.reset()
        audit.disable()
        try:
            prepared(SMALL)
            prepared(SMALL)
            assert "prepared-pair-twin" not in audit.summary()
        finally:
            audit.reset()

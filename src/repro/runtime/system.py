"""End-to-end system glue: offline preparation + co-location runs.

``TackerSystem`` owns everything that persists across experiments, the
way the paper's deployment does in a private datacenter (Section IV):

* the kernel library and the duration oracle (the "hardware");
* PTB transforms of every fusable kernel (cached);
* the fusion search results and compiled artifacts per (TC, CD) pair
  (cached — one artifact serves every co-location that meets the pair);
* the trained duration models (kernel LR + fused two-stage LR).

The offline products depend only on the GPU and the kernels, so one
process prepares each (TC, CD) pair once: a per-process catalog keeps
the first system's search outcome, artifact and pristine trained
models, and every later system with the same GPU and kernel contents
installs them — the models as private copies, so online refits never
leak between systems.

``run_pair`` then evaluates one LC service co-located with one BE
application under Tacker and under Baymax on identical arrival traces,
yielding the per-pair numbers behind Figs. 14, 16 and 19.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .. import audit
from ..config import GPUConfig, RTX2080TI
from ..errors import OccupancyError, SchedulingError
from ..fusion.compiler import FusedArtifact, FusionCompiler
from ..fusion.fuser import FusedKernel
from ..fusion.ptb import PTBKernel, transform as ptb_transform
from ..fusion.search import FusionSearch
from ..gpusim import fastpath
from ..kernels.ir import KernelIR
from ..kernels.library import KernelLibrary, default_library
from ..models.zoo import ModelSpec, model_by_name
from ..predictor.fused_model import FusedDurationModel
from ..predictor.kernel_model import KernelDurationModel
from ..predictor.online import OnlineModelManager
from .faults import FaultPlan, make_injector
from .oracle import DurationOracle, OracleStore
from .policies import GuardConfig, SchedulerPolicy, policy_from_name
from .query import BEApplication
from .runconfig import DEFAULT_RUN_CONFIG, RunConfig, warn_legacy_knobs
from .server import ColocationServer, ServerResult
from .workload import PoissonArrivals, be_application
from .metrics import throughput_improvement

#: The paper's QoS target (Section VIII-B).
DEFAULT_QOS_MS = DEFAULT_RUN_CONFIG.qos_ms
#: Queries per co-location run: enough for a stable 99th percentile.
DEFAULT_QUERIES = DEFAULT_RUN_CONFIG.queries


#: Under auditing, every Nth audited catalog hit of the process (the
#: first included) is re-prepared from scratch and compared bit for bit.
PREPARE_TWIN_EVERY = 16


@dataclass(frozen=True)
class PreparedPair:
    """The offline products of one (TC, CD) pair, as first prepared.

    Everything here is immutable or never handed out: systems install
    ``artifact`` and the PTB transforms as they are, and copies of
    ``model`` (whose component models are pristine copies too).
    """

    #: PTB transforms the preparation cached, in the order it made them
    ptbs: tuple[PTBKernel, ...]
    #: the compiled artifact; None when the pair is never fused
    artifact: Optional[FusedArtifact]
    #: the search ran and found sequential execution faster
    rejected: bool
    #: the trained two-stage model, before any online refit
    model: Optional[FusedDurationModel]


class OfflineCatalog:
    """Per-process catalog of offline products (see the module notes).

    Keys cover everything the products depend on: the GPU config, the
    fast-path switch, and each kernel's name and content signature.
    Entries hold no oracle, so no system's memo outlives it.
    """

    def __init__(self) -> None:
        #: pair key -> PreparedPair
        self.pairs: dict = {}
        #: kernel key -> pristine trained KernelDurationModel
        self.kernel_models: dict = {}
        #: pair hits under auditing since the last clear (paces the twin)
        self.audited_hits = 0

    def clear(self) -> None:
        self.pairs.clear()
        self.kernel_models.clear()
        self.audited_hits = 0


OFFLINE_CATALOG = OfflineCatalog()


def clear_offline_catalog() -> None:
    """Forget every prepared pair and kernel model (for tests and
    benchmarks that must start from a cold process state)."""
    OFFLINE_CATALOG.clear()


def _catalog_key(gpu: GPUConfig, oracle: DurationOracle,
                 *kernels: KernelIR) -> tuple:
    return (gpu, fastpath.enabled()) + tuple(
        (kernel.name, oracle.kernel_signature(kernel)) for kernel in kernels
    )


def _catalog_kernel_model(gpu, oracle, kernel, train) -> KernelDurationModel:
    """A system's kernel model: a private copy of the catalog's pristine
    one, or trained by ``train`` and then catalogued."""
    key = _catalog_key(gpu, oracle, kernel)
    pristine = OFFLINE_CATALOG.kernel_models.get(key)
    if pristine is None:
        model = train(kernel)
        OFFLINE_CATALOG.kernel_models[key] = model.copy()
        return model
    return pristine.copy(oracle=oracle)


def _prepared_state(system: TackerSystem, key: tuple[str, str]) -> dict:
    """What preparing one pair left in a system, as comparable text
    (``repr`` round-trips floats, so equal text is equal bits)."""
    artifact = system.compiler.lookup(*key)
    state = {
        "ptbs": repr([system._ptb.get(name) for name in key]),
        "rejected": system.compiler.is_rejected(*key),
        "artifact": artifact is not None,
    }
    if artifact is None:
        return state
    fused = artifact.fused
    model = system.models.fused_model(fused)
    state.update(
        source_text=artifact.source_text,
        launch_signature=fused.launch(
            fused.tc.ir.default_grid, fused.cd.ir.default_grid
        ).signature,
        tc_model=repr(model.tc_model.fit_state()),
        cd_model=repr(model.cd_model.fit_state()),
        fused_model=repr(model.fit_state()),
    )
    return state


@dataclass
class PairOutcome:
    """One co-location pair's evaluation (a Fig. 14 bar)."""

    lc_name: str
    be_name: str
    tacker: ServerResult
    baymax: ServerResult

    @property
    def improvement(self) -> float:
        """Eq. 10 throughput improvement of Tacker over Baymax."""
        return throughput_improvement(self.tacker, self.baymax)

    @property
    def qos_satisfied(self) -> bool:
        return self.tacker.qos_satisfied


class TackerSystem:
    """The full Tacker deployment over the simulated GPU."""

    def __init__(
        self,
        gpu: GPUConfig = RTX2080TI,
        *,
        config: Optional[RunConfig] = None,
        qos_ms: Optional[float] = None,
        load: Optional[float] = None,
        seed: Optional[int] = None,
        library: Optional[KernelLibrary] = None,
        store: "OracleStore | str | None" = "auto",
        faults: Optional[FaultPlan] = None,
        guard: Optional[GuardConfig] = None,
        audit: Optional[bool] = None,
        telemetry: Optional[bool] = None,
    ):
        legacy = {
            name: value
            for name, value in (
                ("qos_ms", qos_ms), ("load", load), ("seed", seed)
            )
            if value is not None
        }
        if legacy:
            warn_legacy_knobs("TackerSystem", legacy)
        #: run-level knobs (QoS target, load, query count, seed)
        self.config = (config or DEFAULT_RUN_CONFIG).with_overrides(**legacy)
        self.gpu = gpu
        #: system-wide fault plan applied to every run (None = clean)
        self.faults = faults
        #: guard-rail config attached to every policy (None = unguarded)
        self.guard = guard
        #: invariant auditing for every run this system launches:
        #: True/False overrides, None follows the process-wide switch
        self.audit = audit
        #: telemetry for every run this system launches: True/False
        #: overrides, None follows ``config.telemetry`` / the switch
        self.telemetry = telemetry
        self.library = library if library is not None else default_library()
        if store == "auto":
            # Default deployment: durations persist across processes
            # (disable with REPRO_ORACLE_CACHE=0 or store=None).
            store = OracleStore.for_gpu(gpu)
        self.oracle = DurationOracle(gpu, store=store)
        self.models = OnlineModelManager(gpu, oracle=self.oracle)
        self.compiler = FusionCompiler()
        self._search = FusionSearch(gpu, oracle=self.oracle)
        self._ptb: dict[str, PTBKernel] = {}
        self.artifacts: dict[tuple[str, str], FusedKernel] = {}
        self._searched: set[tuple[str, str]] = set()
        #: the oracle the offline catalog serves this system through;
        #: None bypasses the catalog (custom library)
        self._catalog_oracle: Optional[DurationOracle] = None
        if library is None:
            self._catalog_oracle = self.oracle
            self.models.kernel_source = partial(
                _catalog_kernel_model, gpu, self.oracle
            )

    # -- run-level knobs (views over ``self.config``) -----------------------------

    @property
    def qos_ms(self) -> float:
        return self.config.qos_ms

    @property
    def load(self) -> float:
        return self.config.load

    @property
    def seed(self) -> int:
        return self.config.seed

    # -- offline preparation -----------------------------------------------------

    def ptb(self, kernel_name: str) -> PTBKernel:
        """PTB transform of a kernel, cached."""
        cached = self._ptb.get(kernel_name)
        if cached is None:
            cached = ptb_transform(
                self.library.get(kernel_name), self.gpu, oracle=self.oracle
            )
            self._ptb[kernel_name] = cached
        return cached

    def flush(self) -> None:
        """Persist any fresh oracle simulations to the on-disk store."""
        self.oracle.flush()

    def prepare_fusion(self, tc_name: str, cd_name: str) -> Optional[FusedKernel]:
        """Search + compile + train models for one (TC, CD) pair, cached.

        Returns the fused kernel, or None when the offline search found
        sequential execution faster (the pair is never fused online).
        A pair already prepared in this process, for the same GPU and
        kernels, is installed from the offline catalog instead.
        """
        key = (tc_name, cd_name)
        if key in self._searched:
            return self.artifacts.get(key)
        self._searched.add(key)
        catalog_key = self._pair_catalog_key(tc_name, cd_name)
        prepared = OFFLINE_CATALOG.pairs.get(catalog_key)
        if prepared is None:
            prepared = self._prepare_fresh(tc_name, cd_name)
            if catalog_key is not None:
                OFFLINE_CATALOG.pairs[catalog_key] = prepared
            return self.artifacts.get(key)
        self._install(key, prepared)
        if self.audit if self.audit is not None else audit.active():
            OFFLINE_CATALOG.audited_hits += 1
            if (OFFLINE_CATALOG.audited_hits - 1) % PREPARE_TWIN_EVERY == 0:
                self._check_prepared_twin(key)
        return self.artifacts.get(key)

    def _pair_catalog_key(self, tc_name: str, cd_name: str) -> Optional[tuple]:
        """The pair's catalog key, or None when this system bypasses the
        catalog: a custom library, a replaced oracle or model manager,
        or models loaded from a bundle."""
        oracle = self._catalog_oracle
        if (
            oracle is None
            or self.oracle is not oracle
            or self.models.kernel_source is None
            or self.models.bundle_loaded
        ):
            return None
        return _catalog_key(
            self.gpu, oracle,
            self.library.get(tc_name), self.library.get(cd_name),
        )

    def _prepare_fresh(self, tc_name: str, cd_name: str) -> PreparedPair:
        """Prepare one pair here, returning pristine copies of its
        products.  The catalog's only way to fill an entry."""
        ptbs: list[PTBKernel] = []
        try:
            for name in (tc_name, cd_name):
                ptbs.append(self.ptb(name))
            decision = self._search.search(*ptbs)
        except OccupancyError:
            return PreparedPair(tuple(ptbs), None, False, None)
        artifact = self.compiler.compile(decision)
        if artifact is None:
            return PreparedPair(tuple(ptbs), None, True, None)
        self.artifacts[(tc_name, cd_name)] = artifact.fused
        # Train the two-stage duration model now, as the paper does
        # offline with the four canonical load ratios.
        model = self.models.fused_model(artifact.fused)
        pristine = model.copy(
            tc_model=model.tc_model.copy(), cd_model=model.cd_model.copy()
        )
        return PreparedPair(tuple(ptbs), artifact, False, pristine)

    def _install(self, key: tuple[str, str], prepared: PreparedPair) -> None:
        """Install a catalogued pair exactly where a fresh preparation
        leaves its products."""
        for kernel in prepared.ptbs:
            self._ptb.setdefault(kernel.ir.name, kernel)
        if prepared.rejected:
            self.compiler.reject(*key)
        if prepared.artifact is None:
            return
        self.compiler.register(prepared.artifact)
        self.artifacts[key] = prepared.artifact.fused
        self.models.install_fused_model(prepared.model)

    def _check_prepared_twin(self, key: tuple[str, str]) -> None:
        """Audit twin: re-prepare the pair on a side system that bypasses
        the catalog, and compare the installed products bit for bit."""
        side = TackerSystem(
            self.gpu, config=self.config, library=self.library,
            store=self.oracle.store, audit=False,
        )
        side.prepare_fusion(*key)
        ours, theirs = _prepared_state(self, key), _prepared_state(side, key)
        differing = [
            name for name in ours if ours[name] != theirs[name]
        ]
        audit.ensure(
            not differing,
            "prepared-pair-twin",
            "a catalogued pair differs from a fresh preparation",
            pair=key, fields=differing,
        )

    def _candidate_pairs(
        self, model: ModelSpec, be_app: BEApplication
    ) -> set[tuple[str, str]]:
        """All (TC, CD) kernel-name pairs this co-location could fuse."""
        pairs: set[tuple[str, str]] = set()
        lc_tc = {k.kernel for k in model.kernels if k.is_tc and k.fusable}
        lc_cd = {k.kernel for k in model.kernels if not k.is_tc}
        be_tc = {
            i.name for i in be_app.sequence
            if i.kind == "tc" and i.fusable
        }
        be_cd = {i.name for i in be_app.sequence if i.kind == "cd"}
        pairs.update((t, c) for t in lc_tc for c in be_cd)
        pairs.update((t, c) for t in be_tc for c in lc_cd)
        return pairs

    def prepare_pair(self, model: ModelSpec, be_app: BEApplication) -> int:
        """Prepare every fusion candidate of one co-location pair.

        Returns the number of usable fused artifacts.
        """
        usable = 0
        for tc_name, cd_name in sorted(self._candidate_pairs(model, be_app)):
            if self.prepare_fusion(tc_name, cd_name) is not None:
                usable += 1
        return usable

    # -- model persistence ------------------------------------------------------------

    def save_models(self, path: str) -> str:
        """Export every trained duration model to a JSON bundle.

        A deployment ships this bundle alongside the fused libraries so
        restarted runtimes skip the profiling passes.
        """
        return self.models.save(path)

    def load_models(self, path: str) -> int:
        """Restore duration models for the fusion pairs prepared so far.

        Returns the number of models restored.
        """
        return self.models.load(path, self.artifacts)

    # -- co-location runs -----------------------------------------------------------

    def make_policy(
        self,
        name: str,
        guard: "GuardConfig | bool | None" = None,
    ) -> SchedulerPolicy:
        """Build a registered policy bound to this system's models.

        Resolves ``name`` through the policy registry
        (:mod:`repro.runtime.policies.registry`), so third-party
        policies registered with ``register_policy`` work here — and
        everywhere this method backs — without touching this class.

        ``guard`` enables the mispredict guard rails: a
        :class:`GuardConfig`, ``True`` (defaults), or None/False for
        the paper's unguarded kernel manager.  Passing None falls back
        to the system-wide guard configuration.
        """
        if guard is None:
            guard = self.guard
        return policy_from_name(name, self, guard=guard)

    def _make_policy(self, name: str) -> SchedulerPolicy:
        return self.make_policy(name)

    def run_custom(
        self,
        model: ModelSpec,
        be_names: Sequence[str],
        policy: SchedulerPolicy,
        n_queries: Optional[int] = None,
        record_kernels: bool = False,
        faults: "FaultPlan | bool | None" = None,
    ) -> ServerResult:
        """Run an arbitrary policy instance over a standard trace.

        The arrival trace depends only on (model, seed, load, QoS), so
        runs with different policies are directly comparable.

        ``faults`` injects perturbations for this run: a
        :class:`FaultPlan`, or None to fall back to the system-wide
        plan (``False`` forces a clean run).  Each run gets a fresh,
        identically seeded injector, so fault sequences are reproducible
        and independent across runs.
        """
        if n_queries is None:
            n_queries = self.config.queries
        if faults is None:
            faults = self.faults
        if faults is False:
            faults = None
        injector = make_injector(faults)
        arrivals = PoissonArrivals(
            model, self.library, self.oracle,
            load=self.load, seed=self.seed, qos_ms=self.qos_ms,
        )
        queries = arrivals.queries(
            n_queries,
            gap_filter=injector.perturb_gaps if injector else None,
        )
        be_apps = [be_application(name, self.library) for name in be_names]
        server = ColocationServer(
            self.gpu, oracle=self.oracle, policy=policy,
            config=self.config, record_kernels=record_kernels,
            faults=injector, audit_run=self.audit,
            telemetry_run=self.telemetry,
        )
        if injector is None:
            return server.run(queries, be_apps)
        self.models.perturb = injector.perturb_prediction
        try:
            return server.run(queries, be_apps)
        finally:
            self.models.perturb = None

    def _run_policy(
        self,
        policy_name: str,
        model: ModelSpec,
        be_names: Sequence[str],
        n_queries: int,
        record_kernels: bool,
        guard: "GuardConfig | bool | None" = None,
        faults: "FaultPlan | bool | None" = None,
    ) -> ServerResult:
        return self.run_custom(
            model, be_names, self.make_policy(policy_name, guard=guard),
            n_queries=n_queries, record_kernels=record_kernels,
            faults=faults,
        )

    def run_multi(
        self,
        lc_names: Sequence[str],
        be_names: Sequence[str],
        n_queries: Optional[int] = None,
        policy_name: str = "tacker",
        load_split: Optional[Sequence[float]] = None,
    ) -> ServerResult:
        """Co-locate several LC services and BE applications on one GPU.

        Each service keeps its own arrival process; since the GPU is
        shared, every service runs at a *fraction* of its solo-calibrated
        load (default: an equal split), mirroring how a multi-tenant
        deployment divides capacity.  Queries from all services merge
        into one FIFO trace; the Eq. 9 headroom already reserves earlier
        queries' remaining time regardless of which service they belong
        to.
        """
        if not lc_names:
            raise SchedulingError("need at least one LC service")
        if n_queries is None:
            n_queries = self.config.queries
        if load_split is None:
            load_split = [1.0 / len(lc_names)] * len(lc_names)
        if len(load_split) != len(lc_names) or sum(load_split) > 1.0 + 1e-9:
            raise SchedulingError(
                "load_split must match lc_names and sum to at most 1"
            )
        queries: list = []
        for index, (lc_name, share) in enumerate(
            zip(lc_names, load_split)
        ):
            model = model_by_name(lc_name)
            for be_name in be_names:
                self.prepare_pair(
                    model, be_application(be_name, self.library)
                )
            arrivals = PoissonArrivals(
                model, self.library, self.oracle,
                load=self.load * share,
                seed=self.seed + index,
                qos_ms=self.qos_ms,
            )
            queries.extend(arrivals.queries(n_queries))
        be_apps = [be_application(name, self.library) for name in be_names]
        server = ColocationServer(
            self.gpu, oracle=self.oracle,
            policy=self._make_policy(policy_name),
            config=self.config, audit_run=self.audit,
            telemetry_run=self.telemetry,
        )
        return server.run(queries, be_apps)

    def run_pair(
        self,
        lc_name: "str | ModelSpec",
        be_name: str,
        n_queries: Optional[int] = None,
        record_kernels: bool = False,
    ) -> PairOutcome:
        """Evaluate one LC x BE co-location under Tacker and Baymax.

        ``lc_name`` is a model name from the zoo, or a ready-made
        :class:`ModelSpec` (e.g. a custom-batch variant).
        """
        model = (
            lc_name if isinstance(lc_name, ModelSpec)
            else model_by_name(lc_name)
        )
        be_app = be_application(be_name, self.library)
        self.prepare_pair(model, be_app)
        tacker = self._run_policy(
            "tacker", model, [be_name], n_queries, record_kernels
        )
        baymax = self._run_policy(
            "baymax", model, [be_name], n_queries, record_kernels
        )
        return PairOutcome(
            lc_name=model.name, be_name=be_app.name,
            tacker=tacker, baymax=baymax,
        )

"""The Tacker kernel manager: fusion + reorder (Section VII-B).

On every scheduling step for an active LC query it

1. tries to *fuse* the query's current kernel with a ready BE kernel —
   admissible when Eq. 8 holds (the fusion beats sequential execution
   and its extra LC time fits the headroom) — picking the BE kernel
   with the largest throughput gain ``Tgain = Tcd - (Tk_fuse - Ttc)``;
2. otherwise *reorders*: launches a ready BE kernel whose predicted
   duration fits the headroom (the Baymax behaviour);
3. otherwise launches the LC kernel alone.

Fusion works in both directions ("the LC kernels and BE kernels are not
limited to a specified type"): an LC TC kernel absorbs a BE CD kernel,
and an LC CD kernel rides along a BE TC kernel.

:meth:`TackerPolicy.decide` is table-driven: every Eq. 8 evaluation is
computed once per model version into a table keyed by the LC kernel
shape and the BE head shape, and the Eq. 9 and fusion-reserve suffixes
are pinned to each query, so a scheduling step is a handful of dict
hits.  :meth:`TackerPolicy._decide_reference` is the straightforward
step the table path must reproduce bit for bit.  It stays the
production path while predictions are perturbed (fault plans draw from
stateful RNG streams, so the prediction call sequence must not
change), and the invariant auditor re-runs it on a sample of decisions.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ...config import GPUConfig
from ...fusion.fuser import FusedKernel
from ...predictor.online import OnlineModelManager
from ...telemetry.decisions import (
    REJECT_EQ8,
    REJECT_KIND_MISMATCH,
    REJECT_NO_ARTIFACT,
    FusionCandidate,
)
from ..query import BEApplication, KernelInstance, Query
from .base import Action, MispredictGuard, SchedulerPolicy
from .registry import register_policy


class _Eq8Entry:
    """One Eq. 8 evaluation of an (LC kernel, BE head) pair.

    Valid for one model version.  ``rejected`` is the decision-log
    candidate when the pair is not admitted.  ``admitted`` is the one
    when it is, and is None when no threshold can admit the pair (kind
    mismatch, no artifact, or the fusion does not beat sequential
    execution); otherwise the pair is admitted exactly while
    ``extra_lc_ms < Thr``.
    """

    __slots__ = (
        "fused", "lc_ms", "be_ms", "fused_ms", "extra_lc_ms", "gain_ms",
        "rejected", "admitted",
    )

    def __init__(self, rejected: FusionCandidate) -> None:
        self.rejected = rejected
        self.admitted: Optional[FusionCandidate] = None
        self.fused: Optional[FusedKernel] = None
        self.lc_ms = self.be_ms = self.fused_ms = 0.0
        self.extra_lc_ms = self.gain_ms = 0.0


class TackerPolicy(SchedulerPolicy):
    """Kernel fusion + reorder (Section VII-B).

    ``artifacts`` maps (TC kernel name, CD kernel name) to the compiled
    fused kernel produced by the offline search; pairs the search
    rejected are simply absent, so the runtime never reconsiders them.
    """

    policy_name = "tacker"

    def __init__(
        self,
        gpu: GPUConfig,
        models: OnlineModelManager,
        qos_ms: float,
        artifacts: dict[tuple[str, str], FusedKernel],
        pair_selection: str = "gain",
        enable_reorder: bool = True,
        guard: Optional[MispredictGuard] = None,
    ):
        """``pair_selection``: ``"gain"`` picks the BE kernel with the
        largest Tgain (the paper's rule); ``"fifo"`` takes the first
        admissible one (the ablation baseline).  ``enable_reorder``
        toggles the Baymax-style direct BE launches (fusion-only
        ablation when False)."""
        super().__init__(gpu, models, qos_ms, guard=guard)
        if pair_selection not in ("gain", "fifo"):
            raise ValueError(f"unknown pair selection {pair_selection!r}")
        self.artifacts = artifacts
        self.pair_selection = pair_selection
        self.enable_reorder = enable_reorder
        self._cost_cache: dict[tuple, float] = {}
        self._reserve_cache: dict[tuple, list[float]] = {}
        #: (LC name, LC grid, BE app, BE head name, head grid, head
        #: fusable) -> _Eq8Entry.  BE heads are input-scaled per cursor,
        #: so the head grid must be part of the key.
        self._eq8: dict[tuple, _Eq8Entry] = {}
        #: fused-model version the caches were built against
        self._models_version_seen = models.version
        #: identity of the current tables; queries pin their reserve
        #: suffix next to it
        self._tables_token = object()
        #: identity-keyed memo of the BE-app name tuple — the server
        #: passes the same sequence object on every decision
        self._be_names_cache: Optional[tuple] = None

    def _sync_model_version(self) -> None:
        """Drop fusion-cost caches after any online model refresh.

        Both caches embed fused-model predictions, which change when
        the >10%-error retrain path refits a model mid-run.
        """
        if self.models.version != self._models_version_seen:
            self._models_version_seen = self.models.version
            self._cost_cache.clear()
            self._reserve_cache.clear()
            self._eq8.clear()
            self._tables_token = object()

    def _fusion_for(
        self,
        lc_instance: KernelInstance,
        app: BEApplication,
        thr_ms: float,
        log: Optional[list] = None,
    ) -> Optional[tuple[float, Action]]:
        """Evaluate fusing the LC kernel with one BE app's head kernel.

        Returns (Tgain, action) when Eq. 8 admits the fusion.  When
        ``log`` is given (telemetry on), every evaluation — including
        rejected ones, with the reason — is appended to it.
        """
        be = app.head
        if lc_instance.kind == "tc" and be.kind == "cd":
            tc_inst, cd_inst = lc_instance, be
            fused = self.artifacts.get((tc_inst.name, cd_inst.name))
            lc_is_tc = True
        elif lc_instance.kind == "cd" and be.kind == "tc" and be.fusable:
            tc_inst, cd_inst = be, lc_instance
            fused = self.artifacts.get((tc_inst.name, cd_inst.name))
            lc_is_tc = False
        else:
            if log is not None:
                log.append(FusionCandidate(
                    be_app=app.name,
                    lc_is_tc=lc_instance.kind == "tc",
                    reason=REJECT_KIND_MISMATCH,
                ))
            return None
        if fused is None:
            if log is not None:
                log.append(FusionCandidate(
                    be_app=app.name, tc=tc_inst.name, cd=cd_inst.name,
                    lc_is_tc=lc_is_tc, reason=REJECT_NO_ARTIFACT,
                ))
            return None
        tc_ms = self.predict_ms(tc_inst)
        cd_ms = self.predict_ms(cd_inst)
        fused_ms = self.predict_fused_ms(fused, tc_ms, cd_ms)
        lc_ms = tc_ms if lc_is_tc else cd_ms
        be_ms = cd_ms if lc_is_tc else tc_ms
        extra_lc_ms = fused_ms - lc_ms
        admissible = tc_ms + cd_ms > fused_ms and extra_lc_ms < thr_ms
        gain = be_ms - extra_lc_ms
        if log is not None:
            log.append(FusionCandidate(
                be_app=app.name, tc=tc_inst.name, cd=cd_inst.name,
                ttc_ms=tc_ms, tcd_ms=cd_ms, tk_fuse_ms=fused_ms,
                lc_is_tc=lc_is_tc, extra_lc_ms=extra_lc_ms, gain_ms=gain,
                admissible=admissible,
                reason="" if admissible else REJECT_EQ8,
            ))
        if not admissible:
            return None
        action = Action(
            kind="fused",
            be_app=app,
            fused=fused,
            predicted_lc_ms=lc_ms,
            predicted_be_ms=be_ms,
            predicted_fused_ms=fused_ms,
        )
        return (gain, action)

    def _be_names(self, be_apps: Sequence[BEApplication]) -> tuple:
        cached = self._be_names_cache
        if cached is not None and cached[0] is be_apps:
            return cached[1]
        names = tuple(app.name for app in be_apps)
        self._be_names_cache = (be_apps, names)
        return names

    def _fusion_cost_ms(
        self, lc_name: str, be_apps: Sequence[BEApplication]
    ) -> float:
        """Estimated headroom cost of fusing one LC TC kernel (cached)."""
        key = (lc_name, self._be_names(be_apps))
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        best = float("inf")
        tc_kernel = None
        for app in be_apps:
            be = app.head
            if be.kind != "cd":
                continue
            fused = self.artifacts.get((lc_name, be.name))
            if fused is None:
                continue
            if tc_kernel is None:
                tc_kernel = fused.tc.ir
            tc_ms = self.gpu.cycles_to_ms(
                self.models.predict_kernel(tc_kernel, tc_kernel.default_grid)
            )
            cd_ms = self.predict_ms(be)
            fused_ms = self.predict_fused_ms(fused, tc_ms, cd_ms)
            best = min(best, fused_ms - tc_ms)
        cached = 0.0 if best == float("inf") else max(best, 0.0)
        self._cost_cache[key] = cached
        return cached

    def _fusion_reserve_ms(
        self, query: Query, be_apps: Sequence[BEApplication]
    ) -> float:
        """Headroom to keep aside for the query's remaining fusions.

        Section IV: "We prioritize the selection of the fused pair" —
        directly-launched BE kernels must not starve upcoming fusions,
        so reordering only spends headroom beyond this reservation.
        Suffix sums over the (static) kernel sequence make the lookup
        O(1) per decision; the suffix is pinned to the query, so a
        repeat lookup is a read at its cursor.

        The suffix is keyed by (sequence, BE-name tuple) and priced
        from the BE heads present when it is first built; later queries
        of the same sequence reuse it even after the heads moved on.
        The table path reproduces this, it does not "fix" it.
        """
        self._sync_model_version()
        names = self._be_names(be_apps)
        pin = query._reserve_pin
        if (pin is not None and pin[0] is self._tables_token
                and pin[1] is names):
            return pin[2][query._cursor]
        key = (query.sequence_key, names)
        suffix = self._reserve_cache.get(key)
        if suffix is None:
            suffix = [0.0]
            for instance in reversed(query.instances):
                cost = (
                    self._fusion_cost_ms(instance.name, be_apps)
                    if instance.kind == "tc" and instance.fusable
                    else 0.0
                )
                suffix.append(suffix[-1] + cost)
            suffix.reverse()
            self._reserve_cache[key] = suffix
        query._reserve_pin = (self._tables_token, names, suffix)
        return suffix[query._cursor]

    # -- the table path -----------------------------------------------------

    def _eq8_entry(
        self, lc_instance: KernelInstance, app: BEApplication,
        be: KernelInstance,
    ) -> _Eq8Entry:
        """Build one Eq. 8 table entry: :meth:`_fusion_for` without
        the threshold, making the same predictions in the same order."""
        lc_is_tc = lc_instance.kind == "tc"
        if lc_is_tc and be.kind == "cd":
            tc_inst, cd_inst = lc_instance, be
        elif lc_instance.kind == "cd" and be.kind == "tc" and be.fusable:
            tc_inst, cd_inst = be, lc_instance
        else:
            return _Eq8Entry(FusionCandidate(
                be_app=app.name, lc_is_tc=lc_is_tc,
                reason=REJECT_KIND_MISMATCH,
            ))
        fused = self.artifacts.get((tc_inst.name, cd_inst.name))
        if fused is None:
            return _Eq8Entry(FusionCandidate(
                be_app=app.name, tc=tc_inst.name, cd=cd_inst.name,
                lc_is_tc=lc_is_tc, reason=REJECT_NO_ARTIFACT,
            ))
        tc_ms = self.predict_ms(tc_inst)
        cd_ms = self.predict_ms(cd_inst)
        fused_ms = self.predict_fused_ms(fused, tc_ms, cd_ms)
        lc_ms = tc_ms if lc_is_tc else cd_ms
        be_ms = cd_ms if lc_is_tc else tc_ms
        extra_lc_ms = fused_ms - lc_ms
        gain = be_ms - extra_lc_ms
        candidate = partial(
            FusionCandidate,
            be_app=app.name, tc=tc_inst.name, cd=cd_inst.name,
            ttc_ms=tc_ms, tcd_ms=cd_ms, tk_fuse_ms=fused_ms,
            lc_is_tc=lc_is_tc, extra_lc_ms=extra_lc_ms, gain_ms=gain,
        )
        entry = _Eq8Entry(candidate(admissible=False, reason=REJECT_EQ8))
        if tc_ms + cd_ms > fused_ms:
            entry.admitted = candidate(admissible=True, reason="")
        entry.fused = fused
        entry.lc_ms = lc_ms
        entry.be_ms = be_ms
        entry.fused_ms = fused_ms
        entry.extra_lc_ms = extra_lc_ms
        entry.gain_ms = gain
        return entry

    def _extend_fusion(
        self,
        lc_instance: KernelInstance,
        pair: Action,
        gain_ms: float,
        thr_ms: float,
        be_apps: Sequence[BEApplication],
    ) -> tuple[Action, float]:
        """Hook: grow the admitted Eq. 8 pair into the launch to run.

        Returns the action and its total gain; Tacker runs the pair as
        chosen.  Both the table path and the reference call it.
        """
        return pair, gain_ms

    def decide(self, now_ms, active, be_apps):
        """One scheduling step from the per-version tables.

        Bit-identical to :meth:`_decide_reference` — actions, counters,
        guard bookkeeping and decision records — whenever predictions
        are unperturbed; a perturbed predictor runs the reference.
        """
        if self.models.perturb is not None:
            return self._decide_reference(now_ms, active, be_apps)
        self.decisions += 1
        session = self.telemetry
        if not active:
            action = self._pure_be(be_apps)
            if session is not None and action is not None:
                self._record_decision(now_ms, action)
            return action
        query = active[0]
        lc_instance = query.instances[query._cursor]
        mode = "fuse"
        guard_mode = None
        if self.guard is not None:
            self.guard.note_decision()
            mode = guard_mode = self.guard.mode
            if mode == "exclusive":
                action = Action(
                    kind="lc", query=query,
                    predicted_lc_ms=self.predict_ms(lc_instance),
                )
                if session is not None:
                    self._record_decision(
                        now_ms, action, query=query, guard_mode=guard_mode,
                    )
                return action
        self._sync_model_version()
        thr, reservation = self._eq9_thr(now_ms, active, session is not None)
        candidates: Optional[list] = [] if session is not None else None
        if mode == "fuse" and (lc_instance.fusable or lc_instance.kind == "cd"):
            table = self._eq8
            lc_key = (lc_instance.kernel.name, lc_instance.grid)
            fifo = self.pair_selection == "fifo"
            best: Optional[_Eq8Entry] = None
            best_app = None
            for app in be_apps:
                head = app.head
                key = lc_key + (
                    app.name, head.kernel.name, head.grid, head.fusable,
                )
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = self._eq8_entry(
                        lc_instance, app, head,
                    )
                if entry.admitted is None or not entry.extra_lc_ms < thr:
                    if candidates is not None:
                        candidates.append(entry.rejected)
                    continue
                if candidates is not None:
                    candidates.append(entry.admitted)
                if entry.gain_ms <= 0:
                    continue
                if best is None or entry.gain_ms > best.gain_ms:
                    best = entry
                    best_app = app
                if fifo:
                    break
            if best is not None:
                self.fusions += 1
                chosen, gain = self._extend_fusion(
                    lc_instance,
                    Action(
                        kind="fused",
                        query=query,
                        be_app=best_app,
                        fused=best.fused,
                        predicted_lc_ms=best.lc_ms,
                        predicted_be_ms=best.be_ms,
                        predicted_fused_ms=best.fused_ms,
                    ),
                    best.gain_ms, thr, be_apps,
                )
                if session is not None:
                    self._record_decision(
                        now_ms, chosen, query=query, thr_ms=thr,
                        candidates=candidates, reservation=reservation,
                        gain_ms=gain, guard_mode=guard_mode,
                    )
                return chosen
        if not self.enable_reorder:
            action = Action(
                kind="lc", query=query,
                predicted_lc_ms=self.predict_ms(lc_instance),
            )
            if session is not None:
                self._record_decision(
                    now_ms, action, query=query, thr_ms=thr,
                    candidates=candidates or (), reservation=reservation,
                    guard_mode=guard_mode,
                )
            return action
        reserve = self._fusion_reserve_ms(query, be_apps)
        action = self._reorder_or_lc(query, be_apps, thr - reserve)
        if session is not None:
            self._record_decision(
                now_ms, action, query=query, thr_ms=thr, reserve_ms=reserve,
                candidates=candidates or (), reservation=reservation,
                guard_mode=guard_mode,
            )
        return action

    # -- the reference twin ---------------------------------------------------

    def reference_decision(self, now_ms, active, be_apps):
        """The reference twin's action for this step, side-effect free.

        Runs :meth:`_decide_reference` from the policy's current state
        and restores every piece of state a decision mutates — the
        round-robin cursor, the reorder pacing, the decision counters,
        the guard's per-mode tally — and records nothing.  The
        invariant auditor calls it just before the real decision.
        """
        guard = self.guard
        saved = (
            self._rr, self._reordered_at, self.decisions, self.fusions,
            self.telemetry,
        )
        modes = dict(guard.mode_decisions) if guard is not None else None
        self.telemetry = None
        try:
            return self._decide_reference(now_ms, active, be_apps)
        finally:
            (self._rr, self._reordered_at, self.decisions, self.fusions,
             self.telemetry) = saved
            if guard is not None:
                guard.mode_decisions.clear()
                guard.mode_decisions.update(modes)

    def _decide_reference(self, now_ms, active, be_apps):
        """The straightforward scheduling step (the reference twin)."""
        self.decisions += 1
        session = self.telemetry
        if not active:
            action = self._pure_be(be_apps)
            if session is not None and action is not None:
                self._record_decision(now_ms, action)
            return action
        query = active[0]
        mode = "fuse"
        guard_mode = None
        if self.guard is not None:
            self.guard.note_decision()
            mode = guard_mode = self.guard.mode
            if mode == "exclusive":
                action = Action(
                    kind="lc", query=query,
                    predicted_lc_ms=self.predict_ms(query.current),
                )
                if session is not None:
                    self._record_decision(
                        now_ms, action, query=query, guard_mode=guard_mode,
                    )
                return action
        reservation = None
        if session is not None:
            thr, reservation = self._thr_with_reservation(now_ms, active)
        else:
            thr = self.current_thr_ms(now_ms, active)
        lc_instance = query.current
        candidates: Optional[list] = [] if session is not None else None
        if mode == "fuse" and (lc_instance.fusable or lc_instance.kind == "cd"):
            best: Optional[tuple[float, Action]] = None
            for app in be_apps:
                scored = self._fusion_for(lc_instance, app, thr, candidates)
                if scored is None or scored[0] <= 0:
                    continue
                if best is None or scored[0] > best[0]:
                    best = scored
                if self.pair_selection == "fifo":
                    break
            if best is not None and best[0] > 0:
                self.fusions += 1
                gain, action = best
                chosen = Action(
                    kind="fused",
                    query=query,
                    be_app=action.be_app,
                    fused=action.fused,
                    predicted_lc_ms=action.predicted_lc_ms,
                    predicted_be_ms=action.predicted_be_ms,
                    predicted_fused_ms=action.predicted_fused_ms,
                )
                chosen, gain = self._extend_fusion(
                    lc_instance, chosen, gain, thr, be_apps,
                )
                if session is not None:
                    self._record_decision(
                        now_ms, chosen, query=query, thr_ms=thr,
                        candidates=candidates, reservation=reservation,
                        gain_ms=gain, guard_mode=guard_mode,
                    )
                return chosen
        if not self.enable_reorder:
            action = Action(
                kind="lc", query=query,
                predicted_lc_ms=self.predict_ms(lc_instance),
            )
            if session is not None:
                self._record_decision(
                    now_ms, action, query=query, thr_ms=thr,
                    candidates=candidates or (), reservation=reservation,
                    guard_mode=guard_mode,
                )
            return action
        reserve = self._fusion_reserve_ms(query, be_apps)
        action = self._reorder_or_lc(query, be_apps, thr - reserve)
        if session is not None:
            self._record_decision(
                now_ms, action, query=query, thr_ms=thr, reserve_ms=reserve,
                candidates=candidates or (), reservation=reservation,
                guard_mode=guard_mode,
            )
        return action


def _factory(system, guard):
    return TackerPolicy(
        system.gpu, system.models, system.qos_ms, system.artifacts,
        guard=guard,
    )


register_policy(
    "tacker", _factory,
    description="the paper's kernel manager: Eq. 8 TC+CD fusion by best "
                "Tgain, reserve-aware reordering (Section VII-B)",
)

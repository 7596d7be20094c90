"""Fused-kernel artifacts and the offline compilation cost model.

The paper's fuser emits CUDA source for the fused kernel, compiles it
with nvcc into a dynamic-link library, and the runtime ``dlopen``s it
(Section VIII-A).  The costs it reports (Section VIII-I):

* compiling one Parboil fused kernel + building its ``.so``: ~0.9 s,
  library size ~62 KB;
* a shared library covering 10 DNN operators: ~0.7 s, ~463 KB;
* fusing *online* instead (JIT): ~900 ms per kernel — the latency that
  makes online fusion a QoS killer and justifies static PTB fusion.

Without nvcc we model those costs: compile time and library size scale
with the emitted source size, anchored to the paper's measurements.
The artifact cache plays the role of the dlopen'd library directory —
the runtime looks fused kernels up by (TC kernel, CD kernel) name pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .fuser import FusedKernel
from .search import FusionDecision

#: Online JIT fusion latency the paper measures (Section IV-A / VIII-I).
ONLINE_JIT_MS = 900.0

#: Compile-cost anchors from Section VIII-I: a single Parboil fused
#: kernel (~55 emitted lines) takes ~0.9 s and produces a ~62 KB
#: library; batching several fused operators into one shared library
#: amortizes the toolchain startup (~0.7 s for 10 DNN operators).
_COMPILE_BASE_MS = 320.0
_COMPILE_MS_PER_LINE = 10.5
_LIBRARY_BASE_BYTES = 20 * 1024
_LIBRARY_BYTES_PER_LINE = 760
_BATCH_COMPILE_MS_PER_LINE = 0.7


@dataclass(frozen=True)
class FusedArtifact:
    """A compiled fused kernel: the unit the runtime dlopen-invokes."""

    fused: FusedKernel
    source_text: str
    library_name: str
    library_bytes: int
    compile_ms: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.fused.tc.ir.name, self.fused.cd.ir.name)


class FusionCompiler:
    """Compiles fusion decisions into artifacts and caches them.

    The cache is keyed by (TC kernel name, CD kernel name): thanks to
    PTB, one artifact serves every input size of either kernel, so the
    runtime never compiles online.
    """

    def __init__(self) -> None:
        self._artifacts: dict[tuple[str, str], FusedArtifact] = {}
        self._rejected: set[tuple[str, str]] = set()
        #: accumulated offline compile time, for the overhead experiment
        self.total_compile_ms = 0.0

    def compile(self, decision: FusionDecision) -> Optional[FusedArtifact]:
        """Materialize a search decision; returns None for unfusable pairs."""
        key = (decision.tc_name, decision.cd_name)
        if not decision.should_fuse:
            self.reject(*key)
            return None
        if key in self._artifacts:
            return self._artifacts[key]
        fused = decision.best.fused
        source_text = fused.source.render()
        lines = source_text.count("\n") + 1
        artifact = FusedArtifact(
            fused=fused,
            source_text=source_text,
            library_name=f"libfused_{fused.tc.ir.name}_{fused.cd.ir.name}.so",
            library_bytes=_LIBRARY_BASE_BYTES + lines * _LIBRARY_BYTES_PER_LINE,
            compile_ms=_COMPILE_BASE_MS + lines * _COMPILE_MS_PER_LINE,
        )
        self.register(artifact)
        return artifact

    def register(self, artifact: FusedArtifact) -> None:
        """Add an artifact, compiled here or by an earlier compiler of
        the same pair, charging its compile time to this cache."""
        self._artifacts[artifact.key] = artifact
        self.total_compile_ms += artifact.compile_ms

    def reject(self, tc_name: str, cd_name: str) -> None:
        """Record a pair the search found faster run sequentially."""
        self._rejected.add((tc_name, cd_name))

    def lookup(self, tc_name: str, cd_name: str) -> Optional[FusedArtifact]:
        """Runtime lookup; None when the pair is unknown or unfusable."""
        return self._artifacts.get((tc_name, cd_name))

    def is_rejected(self, tc_name: str, cd_name: str) -> bool:
        return (tc_name, cd_name) in self._rejected

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._artifacts

    def __iter__(self) -> Iterator[FusedArtifact]:
        return iter(self._artifacts.values())

    def __len__(self) -> int:
        return len(self._artifacts)

    @property
    def total_library_bytes(self) -> int:
        return sum(a.library_bytes for a in self._artifacts.values())

    @staticmethod
    def batch_library_cost(
        artifacts: Iterable[FusedArtifact],
    ) -> tuple[float, int]:
        """(compile ms, library bytes) for one *shared* library holding
        several fused kernels — how the paper ships the DNN operators
        (one ~463 KB library built in ~0.7 s for 10 operators)."""
        total_lines = sum(
            a.source_text.count("\n") + 1 for a in artifacts
        )
        compile_ms = _COMPILE_BASE_MS + total_lines * _BATCH_COMPILE_MS_PER_LINE
        library_bytes = _LIBRARY_BASE_BYTES + total_lines * _LIBRARY_BYTES_PER_LINE
        return compile_ms, library_bytes

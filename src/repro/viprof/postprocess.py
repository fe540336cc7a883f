"""VIProf post-processing — the extended opreport.

Two extensions over the stock resolver chain (paper §3.2):

1. **JIT samples** — a sample whose PC falls inside a registered VM heap
   is resolved through the epoch code maps: the map for the sample's
   epoch first, then strictly backwards until the first map containing
   the address (:class:`repro.pipeline.stages.JitEpochStage` over
   :class:`repro.viprof.codemap.CodeMapIndex`).  Resolved samples report
   image ``JIT.App``; misses are counted and reported as
   ``(unresolved jit)``.
2. **Boot-image samples** — samples in the (stripped, file-backed)
   ``RVM.code.image`` mapping are resolved through the Jikes RVM internal
   map (:class:`repro.pipeline.stages.BootImageStage`) and reported under
   image ``RVM.map``, exactly as Figure 1 shows.

Everything else (kernel, shared libraries, other processes) falls through
to the stock stages.  :class:`ViprofReport` is nothing but this chain
composition — it overrides :meth:`~repro.oprofile.opreport.OpReport._build_chain`
and adds the JIT-specific annotation helper; all resolution logic lives
in :mod:`repro.pipeline.stages`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.jvm.bootimage import RvmMap
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.oprofile.opreport import OpReport
from repro.os.kernel import Kernel
from repro.pipeline import viprof_chain
from repro.pipeline.resolver import ResolverChain
from repro.pipeline.stages import UNRESOLVED_JIT, JitStageStats
from repro.viprof.codemap import CodeMapIndex
from repro.viprof.runtime_profiler import VmRegistration

if TYPE_CHECKING:  # pragma: no cover
    from repro.profiling.annotate import SymbolAnnotation

__all__ = ["ViprofReport", "UNRESOLVED_JIT", "JitStageStats"]


class ViprofReport(OpReport):
    """Extended post-processor: the stock chain + code maps + RVM.map."""

    def __init__(
        self,
        kernel: Kernel,
        sample_dir: Path | str,
        codemaps: CodeMapIndex,
        rvm_map: RvmMap,
        registrations: tuple[VmRegistration, ...],
        backward_traversal: bool = True,
        strict: bool = True,
    ) -> None:
        """``backward_traversal=False`` is the ablation: JIT samples only
        consult their own epoch's map (no walk through earlier maps);
        ``strict=False`` is degraded mode for salvaged sessions — epoch
        walks blocked by quarantined maps are remapped to
        ``(unresolved jit)`` and counted instead of raising."""
        self.codemaps = codemaps
        self.rvm_map = rvm_map
        self.backward_traversal = backward_traversal
        self.strict = strict
        self.registrations = tuple(registrations)
        super().__init__(kernel, sample_dir)

    def _build_chain(self) -> ResolverChain:
        """The vertically integrated chain: kernel, JIT epoch maps, RVM
        boot image, then stock task-VMA resolution."""
        return viprof_chain(
            self.kernel,
            self.codemaps,
            self.rvm_map,
            self.registrations,
            backward=self.backward_traversal,
            strict=self.strict,
        )

    @property
    def jit_stats(self) -> JitStageStats:
        """How JIT samples resolved (accuracy reporting), derived from the
        chain's claim counts for the JIT stage."""
        return JitStageStats.from_outcomes(
            self.chain.stage_outcomes("jit-epoch")
        )

    # ------------------------------------------------------------------

    def annotate_jit(
        self, method_name: str, bucket_bytes: int = 16
    ) -> "SymbolAnnotation":
        """Annotate a JIT method at (approximate) bytecode granularity.

        The code maps record each body's compiler tier; the tier's
        expansion factor converts machine-code offsets back to bytecode
        indices, so the histogram points *inside* the Java method.
        """
        from repro.jvm.compiler import tier_by_label
        from repro.profiling.annotate import annotate_symbol

        tier_label: str | None = None
        for epoch in reversed(self.codemaps.epochs):
            cm = self.codemaps.map_for(epoch)
            for rec in cm.records:
                if rec.name == method_name:
                    tier_label = rec.tier
                    break
            if tier_label is not None:
                break
        expansion = (
            tier_by_label(tier_label).expansion if tier_label else None
        )
        return annotate_symbol(
            self.resolved_samples(), JIT_APP_IMAGE_LABEL, method_name,
            bucket_bytes=bucket_bytes, expansion=expansion,
        )

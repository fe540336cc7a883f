"""The streaming sample-resolution pipeline.

One vocabulary for every profile in the tree: a *source* streams samples
(:mod:`repro.pipeline.source`), a *resolver chain* of ordered stages maps
each PC to an (image, symbol) attribution with per-stage hit/miss
counters (:mod:`repro.pipeline.stages`, :mod:`repro.pipeline.resolver`),
and a single-pass constant-memory aggregator folds the resolved stream
into a report (:mod:`repro.pipeline.aggregate`).

The three report flavours are nothing but chain compositions:

* :func:`opreport_chain` — kernel symbols, then task VMAs (stock
  ``opreport``);
* :func:`viprof_chain` — kernel, JIT epoch maps, RVM boot image, task
  VMAs (the paper's vertically integrated profile);
* :func:`xen_chain` — a :class:`~repro.pipeline.stages.HypervisorStage`
  in front of a :class:`~repro.pipeline.stages.DomainDispatchStage` over
  one :func:`viprof_chain` per guest domain (XenoProf multi-stack).

``repro.oprofile.opreport``, ``repro.viprof.postprocess``, and
``repro.xen.engine`` (``MultiStackResult.domain_chain``) build their
reports from these compositions — there is exactly one "PC → symbol"
code path in the tree, and it is here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.pipeline.aggregate import run_pipeline
from repro.pipeline.callgraph import (
    CallArc,
    CallGraphRecorder,
    CrossLayerCallGraph,
    LayeredNode,
    NodeKey,
    layered_node_for,
)
from repro.pipeline.parallel import (
    ShardChunk,
    consume_source,
    plan_shards,
    run_parallel_pipeline,
)
from repro.pipeline.resolver import ResolverChain, StageStats
from repro.pipeline.source import (
    DirectorySource,
    PipelineSample,
    as_pipeline_sample,
    file_source,
    iter_pipeline_samples,
    sample_key,
)
from repro.pipeline.stages import (
    UNKNOWN_IMAGE,
    UNRESOLVED_JIT,
    BootImageStage,
    DomainDispatchStage,
    FallbackStage,
    HypervisorStage,
    JitEpochStage,
    JitStageStats,
    KernelSymbolStage,
    ResolverStage,
    TaskVmaStage,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.jvm.bootimage import RvmMap
    from repro.os.kernel import Kernel
    from repro.viprof.codemap import CodeMapIndex
    from repro.viprof.runtime_profiler import VmRegistration
    from repro.xen.hypervisor import Hypervisor

__all__ = [
    "PipelineSample",
    "as_pipeline_sample",
    "iter_pipeline_samples",
    "sample_key",
    "file_source",
    "DirectorySource",
    "ResolverStage",
    "KernelSymbolStage",
    "JitEpochStage",
    "JitStageStats",
    "BootImageStage",
    "TaskVmaStage",
    "HypervisorStage",
    "DomainDispatchStage",
    "FallbackStage",
    "UNKNOWN_IMAGE",
    "UNRESOLVED_JIT",
    "ResolverChain",
    "StageStats",
    "run_pipeline",
    "ShardChunk",
    "plan_shards",
    "consume_source",
    "run_parallel_pipeline",
    "NodeKey",
    "CallArc",
    "CallGraphRecorder",
    "LayeredNode",
    "CrossLayerCallGraph",
    "layered_node_for",
    "opreport_chain",
    "viprof_chain",
    "xen_chain",
]


def opreport_chain(kernel: "Kernel") -> ResolverChain:
    """Stock ``opreport`` resolution: kernel symbols, then task VMAs."""
    return ResolverChain([KernelSymbolStage(kernel), TaskVmaStage(kernel)])


def viprof_chain(
    kernel: "Kernel",
    codemaps: "CodeMapIndex",
    rvm_map: "RvmMap",
    registrations: Iterable["VmRegistration"],
    backward: bool = True,
    strict: bool = True,
) -> ResolverChain:
    """The paper's vertically integrated resolution: kernel symbols, JIT
    epoch maps (backward walk), RVM boot image, then task VMAs.  A Xen
    guest domain resolves through the same chain, scoped to that
    domain's kernel and VM state.

    ``strict=False`` builds the degraded post-salvage flavour: epoch
    walks blocked at a quarantine barrier fall to ``(unresolved jit)``
    and are counted, instead of raising.
    """
    return ResolverChain(
        [
            KernelSymbolStage(kernel),
            JitEpochStage(
                codemaps, registrations, backward=backward, strict=strict
            ),
            BootImageStage(kernel, rvm_map),
            TaskVmaStage(kernel),
        ]
    )


def xen_chain(
    hypervisor: "Hypervisor", domain_chains: Mapping[int, ResolverChain]
) -> ResolverChain:
    """XenoProf multi-stack resolution: hypervisor addresses first, then
    each bucket goes to its domain's own chain, which counts its claims."""
    return ResolverChain(
        [HypervisorStage(hypervisor), DomainDispatchStage(domain_chains)]
    )

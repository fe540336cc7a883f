"""XenoProf-style sampling and cross-stack post-processing.

XenoProf moves the counter-overflow handler into the hypervisor: Xen owns
the hardware counters, tags each sample with the *currently running
domain*, and exposes per-domain sample streams.  Our reproduction keeps the
same structure:

* :class:`XenoSample` — a raw sample plus its domain id;
* :class:`XenoProfBuffer` — the hypervisor-side sample store with
  per-domain accounting (and a bounded capacity, like the real shared
  buffer pages);
* :class:`XenoProfReport` — resolution across *every* layer of *every*
  stack: hypervisor symbols, each guest's kernel, its processes, its boot
  image (via RVM.map), and its JIT code (via that domain's VIProf epoch
  code maps).  This is the paper's "multiple concurrently executing
  software stacks" goal realized end to end.

Resolution is the streaming pipeline's (:mod:`repro.pipeline`): each
:class:`DomainResolver` is one guest's VIProf chain, and the report is a
hypervisor stage in front of a domain-dispatch stage over those chains —
the same stages every other report in the tree composes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jvm.bootimage import RvmMap
from repro.os.kernel import Kernel
from repro.pipeline import viprof_chain, xen_chain
from repro.pipeline.source import PipelineSample
from repro.profiling.model import RawSample, ResolvedSample
from repro.profiling.report import ProfileReport, StreamingAggregator
from repro.viprof.codemap import CodeMapIndex
from repro.viprof.runtime_profiler import VmRegistration
from repro.xen.hypervisor import Hypervisor

__all__ = ["XenoSample", "XenoProfBuffer", "DomainResolver", "XenoProfReport"]


@dataclass(frozen=True, slots=True)
class XenoSample:
    """One sample tagged with the domain that was running."""

    raw: RawSample
    domain_id: int


@dataclass
class XenoProfBuffer:
    """Hypervisor-side sample store with per-domain counts."""

    capacity: int = 262_144
    _samples: list[XenoSample] = field(default_factory=list)
    lost: int = 0
    per_domain: dict[int, int] = field(default_factory=dict)
    xen_samples: int = 0

    def append(self, sample: XenoSample, in_xen: bool) -> bool:
        if len(self._samples) >= self.capacity:
            self.lost += 1
            return False
        self._samples.append(sample)
        self.per_domain[sample.domain_id] = (
            self.per_domain.get(sample.domain_id, 0) + 1
        )
        if in_xen:
            self.xen_samples += 1
        return True

    @property
    def samples(self) -> tuple[XenoSample, ...]:
        return tuple(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


@dataclass
class DomainResolver:
    """Everything needed to symbolize one guest's samples.

    Attributes:
        kernel: the guest's kernel (own vmlinux + process table).
        vm_task_id: pid of the guest's JVM process.
        heap_bounds: the registered VM heap range.
        codemaps: the guest's VIProf epoch code maps.
        rvm_map: the guest's boot-image map.

    The resolver is one guest's VIProf chain (kernel → JIT epoch maps →
    boot image → task VMAs), built once and cached; its per-stage counters
    accumulate across every sample the domain resolves.
    """

    kernel: Kernel
    vm_task_id: int
    heap_bounds: tuple[int, int]
    codemaps: CodeMapIndex
    rvm_map: RvmMap

    def __post_init__(self) -> None:
        lo, hi = self.heap_bounds
        self.chain = viprof_chain(
            self.kernel,
            self.codemaps,
            self.rvm_map,
            (VmRegistration(self.vm_task_id, lo, hi),),
        )

    def resolve(self, sample: RawSample) -> ResolvedSample:
        return self.chain.resolve(PipelineSample(raw=sample))


class XenoProfReport:
    """Cross-stack post-processor over a XenoProf buffer."""

    def __init__(
        self,
        hypervisor: Hypervisor,
        resolvers: dict[int, DomainResolver],
    ) -> None:
        self.hypervisor = hypervisor
        self.resolvers = resolvers
        self.chain = xen_chain(
            hypervisor, {d: r.chain for d, r in resolvers.items()}
        )

    def domain_report(
        self, buffer: XenoProfBuffer, domain_id: int
    ) -> ProfileReport:
        """Per-domain profile: that guest's samples plus hypervisor work
        performed while it ran (XenoProf's per-domain view)."""
        stream = (s for s in buffer.samples if s.domain_id == domain_id)
        agg = StreamingAggregator()
        for resolved in self.chain.resolve_stream(stream):
            agg.add(resolved)
        return agg.report()

    def unified_report(self, buffer: XenoProfBuffer) -> ProfileReport:
        """One vertically *and horizontally* integrated profile: every
        domain's stack plus the hypervisor, in one listing.  Symbols are
        prefixed with their domain so identical guest symbols stay
        distinguishable."""
        agg = StreamingAggregator()
        samples = buffer.samples
        for s, r in zip(samples, self.chain.resolve_stream(samples)):
            if self.hypervisor.is_xen_address(s.raw.pc):
                prefix = "xen"
            else:
                prefix = f"dom{s.domain_id}"
            agg.add(
                ResolvedSample(
                    raw=r.raw, image=f"{prefix}:{r.image}", symbol=r.symbol
                )
            )
        return agg.report()

    def xen_share(self, buffer: XenoProfBuffer) -> float:
        """Fraction of all samples that landed in the hypervisor itself."""
        if not len(buffer):
            return 0.0
        return buffer.xen_samples / len(buffer)

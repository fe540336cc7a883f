"""XenoProf-style sampling: the hypervisor-side, domain-tagged buffer.

XenoProf moves the counter-overflow handler into the hypervisor: Xen owns
the hardware counters, tags each sample with the *currently running
domain*, and exposes per-domain sample streams.  Our reproduction keeps the
same structure:

* :class:`XenoSample` — a raw sample plus its domain id;
* :class:`XenoProfBuffer` — the hypervisor-side sample store with
  per-domain accounting (and a bounded capacity, like the real shared
  buffer pages).

Resolution across *every* layer of *every* stack — hypervisor symbols,
each guest's kernel, its processes, its boot image (via RVM.map), and its
JIT code (via that domain's VIProf epoch code maps) — is the streaming
pipeline's :func:`~repro.pipeline.xen_chain` over one
:func:`~repro.pipeline.viprof_chain` per guest, built by
:meth:`repro.xen.engine.MultiStackResult.domain_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.profiling.model import RawSample

__all__ = ["XenoSample", "XenoProfBuffer"]


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

"""Resolver stages — the single "PC → symbol" vocabulary of the tree.

Each stage answers one question about a sample and either *claims* it
(returns a :class:`~repro.profiling.model.ResolvedSample`) or passes it
down the chain (returns None).  Stock ``opreport``, VIProf, and the
multi-domain XenoProf report are nothing but different orderings of these
stages (see :mod:`repro.pipeline` for the canonical compositions):

* :class:`KernelSymbolStage` — kernel-mode PCs against the ``vmlinux``
  symbol table;
* :class:`JitEpochStage` — PCs inside a registered VM heap through the
  epoch code maps, walking strictly backwards from the sample's epoch
  (paper §3.2); terminal for heap samples (a miss is ``(unresolved jit)``,
  never a fall-through);
* :class:`BootImageStage` — PCs in the stripped boot-image mapping through
  the Jikes RVM internal map (``RVM.map``);
* :class:`TaskVmaStage` — the owning task's VMA set: file-backed mappings
  through ELF symbols, anonymous mappings to an ``anon (range:...)``
  label;
* :class:`HypervisorStage` — Xen-layer PCs against the hypervisor symbol
  table;
* :class:`DomainDispatchStage` — hands each bucket to its domain's own
  sub-chain (XenoProf multi-stack resolution);
* :class:`FallbackStage` — the terminal ``(unknown)`` attribution.

Stages keep no counters.  The chain counts every claim under ``(claim
index, outcome)`` and derives per-stage hits, misses and detail from that
one counter (:meth:`~repro.pipeline.resolver.ResolverChain.stats_dict`).
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ProfilerError
from repro.jvm.bootimage import BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.os.address_space import VmaKind
from repro.os.binary import NO_SYMBOLS
from repro.os.kernel import Kernel
from repro.pipeline.source import sample_key
from repro.profiling.model import ResolvedSample

if TYPE_CHECKING:  # pragma: no cover
    from repro.jvm.bootimage import RvmMap
    from repro.pipeline.resolver import ResolverChain
    from repro.pipeline.source import PipelineSample
    from repro.viprof.codemap import CodeMapIndex
    from repro.viprof.runtime_profiler import VmRegistration
    from repro.xen.hypervisor import Hypervisor

__all__ = [
    "UNKNOWN_IMAGE",
    "UNRESOLVED_JIT",
    "ResolverStage",
    "KernelSymbolStage",
    "JitEpochStage",
    "JitStageStats",
    "BootImageStage",
    "TaskVmaStage",
    "HypervisorStage",
    "DomainDispatchStage",
    "FallbackStage",
]

#: Label for samples whose PC matches no mapping at all.
UNKNOWN_IMAGE = "(unknown)"

#: Symbol label for VM-heap samples no epoch map ever held.
UNRESOLVED_JIT = "(unresolved jit)"

#: One bucket's answer from :meth:`ResolverStage.resolve_group`: per
#: sample, ``(resolved, outcome)`` for a claim or None for a pass-down.
GroupResult = list[tuple[ResolvedSample, str | None] | None]


class ResolverStage:
    """One step of a resolver chain.

    ``resolve`` returns a resolved sample to claim the sample, or None to
    pass it to the next stage.  ``name`` keys the chain's per-stage
    counters.  The chain offers samples a bucket at a time through
    :meth:`resolve_group`, which by default asks :meth:`resolve` per
    sample; stages with a batched answer override it.

    ``chains`` lists the inner chains a stage routes to (the Xen domain
    dispatcher); the outer chain resets, exports and absorbs their
    counters along with its own.
    """

    name: str = "stage"
    chains: "Mapping[int, ResolverChain]" = MappingProxyType({})

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raise NotImplementedError

    def resolve_group(
        self, samples: "list[PipelineSample]", counts: list[int]
    ) -> GroupResult:
        """Resolve one bucket: samples share ``(epoch, kernel_mode,
        task_id, domain_id)``, arrive with PCs ascending and distinct,
        and ``counts[i]`` is how many stream samples ``samples[i]``
        stands for.  Returns a positionally aligned list — ``(resolved,
        outcome)`` for claims, None for pass-downs."""
        out: list[tuple[ResolvedSample, str | None] | None] = []
        for sample in samples:
            resolved = self.resolve(sample)
            out.append(None if resolved is None else (resolved, None))
        return out

    def detail_dict(self, outcomes: Counter) -> dict[str, object] | None:
        """Stage-specific detail for the chain's stats entry, derived
        from the stage's claim counts by outcome (None: no detail)."""
        return None

    def degraded_dict(self, outcomes: Counter) -> dict[str, int] | None:
        """Degradation counters for a stage running in degraded
        (post-salvage) mode; None when the stage cannot degrade."""
        return None


class KernelSymbolStage(ResolverStage):
    """Kernel-mode samples (or kernel-range PCs) against ``vmlinux``."""

    name = "kernel"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        if not raw.kernel_mode and not self.kernel.is_kernel_address(raw.pc):
            return None
        image, symbol = self.kernel.resolve_kernel(raw.pc)
        koff = raw.pc - self.kernel.layout.kernel_base
        sym = self.kernel.image.symbol_at(koff)
        return ResolvedSample(
            raw=raw, image=image, symbol=symbol,
            offset=(koff - sym.offset) if sym is not None else -1,
        )


class JitStageStats:
    """Per-stage resolution detail for JIT samples (accuracy reporting),
    derived from the JIT stage's claim counts by outcome
    (:meth:`from_outcomes`)."""

    def __init__(self) -> None:
        self.jit_samples = 0
        self.resolved_in_own_epoch = 0
        self.resolved_in_earlier_epoch = 0
        self.unresolved = 0
        #: degraded mode only: samples whose backward walk hit a
        #: quarantined epoch and were remapped to ``(unresolved jit)``
        self.blocked_at_quarantine = 0

    @classmethod
    def from_outcomes(cls, outcomes: Counter) -> "JitStageStats":
        """The detail for a JIT stage whose claims counted ``outcomes``
        (``own``/``earlier``/``unresolved``/``blocked`` → samples)."""
        s = cls()
        s.resolved_in_own_epoch = outcomes["own"]
        s.resolved_in_earlier_epoch = outcomes["earlier"]
        s.unresolved = outcomes["unresolved"]
        s.blocked_at_quarantine = outcomes["blocked"]
        s.jit_samples = sum(outcomes.values())
        return s

    @property
    def resolved(self) -> int:
        return self.resolved_in_own_epoch + self.resolved_in_earlier_epoch

    @property
    def resolution_rate(self) -> float:
        return self.resolved / self.jit_samples if self.jit_samples else 1.0

    def as_dict(self) -> dict[str, int | float]:
        return {
            "jit_samples": self.jit_samples,
            "resolved_in_own_epoch": self.resolved_in_own_epoch,
            "resolved_in_earlier_epoch": self.resolved_in_earlier_epoch,
            "unresolved": self.unresolved,
            "blocked_at_quarantine": self.blocked_at_quarantine,
            "resolution_rate": self.resolution_rate,
        }


class JitEpochStage(ResolverStage):
    """VM-heap samples through the epoch code maps (backward walk).

    Terminal for samples inside a registered heap: resolution failures are
    attributed to ``JIT.App (unresolved jit)`` rather than passed on,
    because no later stage can know more about anonymous heap memory.
    Every claim carries an outcome — ``own`` or ``earlier`` (the epoch
    map that held the PC), ``unresolved``, or ``blocked`` — that the
    chain counts and :class:`JitStageStats` summarizes.

    ``backward=False`` is the paper's ablation: only the sample's own
    epoch map is consulted.

    ``strict=False`` is degraded (post-salvage) mode: a walk blocked by a
    quarantined epoch (:data:`~repro.viprof.codemap.RESOLVE_BLOCKED`) is
    remapped to ``(unresolved jit)`` and counted as ``blocked`` — never
    attributed to a possibly-stale record.  In strict mode (the default) a
    blocked walk is an error: a strict pipeline must not silently consume
    a salvaged session.
    """

    name = "jit-epoch"

    def __init__(
        self,
        codemaps: "CodeMapIndex",
        registrations: Iterable["VmRegistration"],
        backward: bool = True,
        strict: bool = True,
    ) -> None:
        self.codemaps = codemaps
        self.backward = backward
        self.strict = strict
        self._registrations = {r.task_id: r for r in registrations}

    def resolve_group(
        self, samples: "list[PipelineSample]", counts: list[int]
    ) -> GroupResult:
        """One epoch walk for the whole ascending PC run
        (:meth:`~repro.viprof.codemap.CodeMapIndex.resolve_run`) instead
        of one backward walk per sample."""
        from repro.viprof.codemap import RESOLVE_BLOCKED

        out: list[tuple[ResolvedSample, str | None] | None] = (
            [None] * len(samples)
        )
        if not samples:
            return out
        # The bucket shares task_id (it is part of the bucket key), so
        # registration and heap bounds are checked once per run.
        reg = self._registrations.get(samples[0].raw.task_id)
        if reg is None:
            return out
        covered = [
            i for i, s in enumerate(samples) if reg.covers(s.raw.pc)
        ]
        if not covered:
            return out
        hits = self.codemaps.resolve_run(
            samples[covered[0]].raw.epoch,
            [samples[i].raw.pc for i in covered],
            backward=self.backward,
        )
        for i, hit in zip(covered, hits):
            raw = samples[i].raw
            if hit is RESOLVE_BLOCKED:
                if self.strict:
                    raise ProfilerError(
                        f"epoch walk for pc {raw.pc:#x} (epoch {raw.epoch}) "
                        "blocked by a quarantined code map; rerun the "
                        "pipeline in degraded mode (strict=False) to "
                        "account for salvaged sessions"
                    )
                out[i] = (
                    ResolvedSample(
                        raw=raw, image=JIT_APP_IMAGE_LABEL,
                        symbol=UNRESOLVED_JIT,
                    ),
                    "blocked",
                )
            elif hit is None:
                out[i] = (
                    ResolvedSample(
                        raw=raw, image=JIT_APP_IMAGE_LABEL,
                        symbol=UNRESOLVED_JIT,
                    ),
                    "unresolved",
                )
            else:
                record, found_epoch = hit
                out[i] = (
                    ResolvedSample(
                        raw=raw, image=JIT_APP_IMAGE_LABEL,
                        symbol=record.name,
                        offset=raw.pc - record.address,
                    ),
                    "own" if found_epoch == raw.epoch else "earlier",
                )
        return out

    def detail_dict(self, outcomes: Counter) -> dict[str, int | float]:
        return JitStageStats.from_outcomes(outcomes).as_dict()

    def degraded_dict(self, outcomes: Counter) -> dict[str, int] | None:
        """None in strict mode — a strict stage cannot degrade."""
        if self.strict:
            return None
        return {"blocked_at_quarantine": outcomes["blocked"]}


class BootImageStage(ResolverStage):
    """Samples in the stripped boot-image mapping through ``RVM.map``."""

    name = "boot-image"

    def __init__(self, kernel: Kernel, rvm_map: "RvmMap") -> None:
        self.kernel = kernel
        self.rvm_map = rvm_map

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        proc = self.kernel.process(raw.task_id)
        if proc is None:
            return None
        vma = proc.address_space.resolve(raw.pc)
        if vma is None or vma.kind is not VmaKind.FILE:
            return None
        assert vma.image is not None
        if vma.image.name != BOOT_IMAGE_NAME:
            return None
        off = vma.to_image_offset(raw.pc)
        entry = self.rvm_map.resolve(off)
        if entry is None:
            return ResolvedSample(
                raw=raw, image=RVM_MAP_IMAGE_LABEL, symbol=NO_SYMBOLS
            )
        return ResolvedSample(
            raw=raw, image=RVM_MAP_IMAGE_LABEL, symbol=entry.name,
            offset=off - entry.offset,
        )


class TaskVmaStage(ResolverStage):
    """User PCs through the owning task's VMA set (stock opreport)."""

    name = "task-vma"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        proc = self.kernel.process(raw.task_id)
        if proc is None:
            return None
        vma = proc.address_space.resolve(raw.pc)
        if vma is None:
            return None
        if vma.kind is VmaKind.FILE:
            assert vma.image is not None
            off = vma.to_image_offset(raw.pc)
            sym = vma.image.symbol_at(off)
            return ResolvedSample(
                raw=raw,
                image=vma.image.name,
                symbol=sym.name if sym is not None else NO_SYMBOLS,
                offset=(off - sym.offset) if sym is not None else -1,
            )
        return ResolvedSample(raw=raw, image=vma.label(), symbol=NO_SYMBOLS)


class HypervisorStage(ResolverStage):
    """Xen-layer PCs against the hypervisor's own symbol table."""

    name = "hypervisor"

    def __init__(self, hypervisor: "Hypervisor") -> None:
        self.hypervisor = hypervisor

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        raw = sample.raw
        if not self.hypervisor.is_xen_address(raw.pc):
            return None
        image, symbol = self.hypervisor.resolve(raw.pc)
        return ResolvedSample(raw=raw, image=image, symbol=symbol)


class DomainDispatchStage(ResolverStage):
    """Hands each bucket to its domain's own resolver chain.

    A bucket shares its domain id (it is part of the bucket key), so the
    whole bucket — with its sample counts — goes to that domain's chain
    in one :meth:`~repro.pipeline.resolver.ResolverChain.resolve_groups`
    call, which counts the claims there.

    Terminal: a sample tagged with an unknown domain is a corrupt stream,
    reported as a :class:`~repro.errors.ProfilerError` rather than
    silently falling through to ``(unknown)``.
    """

    name = "domain-dispatch"

    def __init__(self, chains: Mapping[int, "ResolverChain"]) -> None:
        self.chains = dict(chains)

    def resolve_group(
        self, samples: "list[PipelineSample]", counts: list[int]
    ) -> GroupResult:
        domain = samples[0].domain_id if samples else None
        chain = self.chains.get(domain)  # type: ignore[arg-type]
        if chain is None:
            raise ProfilerError(f"no resolver for domain {domain}")
        keys = [sample_key(s) for s in samples]
        entries = chain.resolve_groups(dict(zip(keys, counts)))
        out: list[tuple[ResolvedSample, str | None] | None] = []
        for sample, key in zip(samples, keys):
            e = entries[key]
            out.append((
                ResolvedSample(
                    raw=sample.raw, image=e.image, symbol=e.symbol,
                    offset=e.offset,
                ),
                None,
            ))
        return out

    def detail_dict(self, outcomes: Counter) -> dict[str, object]:
        """The inner chains' full counters, keyed ``dom{id}``, so the
        per-domain JIT split and degraded counters are
        visible in the outer chain's ``stats_dict()``."""
        return {
            f"dom{dom}": chain.stats_dict()
            for dom, chain in sorted(self.chains.items())
        }

    def degraded_dict(self, outcomes: Counter) -> dict[str, int] | None:
        """Summed degradation counters across the inner chains, so a
        multi-stack chain's top-level ``degraded`` flag reflects any
        domain resolving in degraded (post-salvage) mode.  None when
        every inner chain is strict."""
        totals: dict[str, int] = {}
        any_degraded = False
        for chain in self.chains.values():
            for entry in chain.stats_dict()["stages"]:
                counters = entry.get("degraded")
                if counters is None:
                    continue
                any_degraded = True
                for k, v in counters.items():
                    totals[k] = totals.get(k, 0) + v
        return totals if any_degraded else None


class FallbackStage(ResolverStage):
    """The terminal attribution for samples no stage could place."""

    name = "unresolved"

    def resolve(self, sample: "PipelineSample") -> ResolvedSample | None:
        return ResolvedSample(
            raw=sample.raw, image=UNKNOWN_IMAGE, symbol=NO_SYMBOLS
        )

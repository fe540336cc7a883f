"""The reference resolver: one sample at a time, straight down the stages.

Production resolution (:meth:`repro.pipeline.ResolverChain.resolve_groups`)
groups samples by key, walks bucket by bucket, lets each stage cut a
bucket's ascending PC run at its range edges, and derives its statistics
from one claim counter.  This oracle does none of that: it offers every
sample to every stage in order and answers each stage's question with
its own per-sample lookup, by linear scan — the task's VMAs, an image's
symbols, the ``RVM.map`` entries, and each epoch map's records for the
JIT step (:func:`walk`).  It calls no production lookup (no bisect, no
interval table, no stage method); it recurses into the domain chain for
the Xen dispatch, and counts hits, misses and the JIT split by hand as
it goes.  Parity tests compare production reports and the whole
``stats_dict()`` against it.

It reads a chain's stages' inputs (kernel, maps, registrations) but
never its counters, so a chain can be handed to the oracle and to
production alike.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.errors import AddressSpaceError, ProfilerError
from repro.jvm.bootimage import BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.os.address_space import VmaKind
from repro.os.binary import NO_SYMBOLS
from repro.pipeline import (
    UNKNOWN_IMAGE,
    UNRESOLVED_JIT,
    BootImageStage,
    DomainDispatchStage,
    FallbackStage,
    HypervisorStage,
    JitEpochStage,
    KernelSymbolStage,
    ResolverChain,
    TaskVmaStage,
    iter_pipeline_samples,
)
from repro.profiling.model import ResolvedSample
from repro.profiling.report import ProfileReport, StreamingAggregator
from repro.viprof.codemap import RESOLVE_BLOCKED
from repro.xen.hypervisor import XEN_BASE

__all__ = ["Oracle", "oracle_report", "walk"]


def _covering(entries, offset: int):
    """The entry (a symbol or an ``RVM.map`` row) whose
    ``[offset, offset + size)`` holds ``offset``, by linear scan."""
    for entry in entries:
        if entry.offset <= offset < entry.offset + entry.size:
            return entry
    return None


def _vma_of(kernel, task_id: int, pc: int):
    """The VMA of task ``task_id`` that holds ``pc``, by linear scan
    (None for an unknown task or an unmapped PC)."""
    proc = kernel.process(task_id)
    if proc is None:
        return None
    for vma in proc.address_space.vmas:
        if vma.start <= pc < vma.end:
            return vma
    return None


def _symbolized(raw, image, offset: int) -> ResolvedSample:
    """``offset`` into ``image`` through its symbols (``(no symbols)``,
    offset -1, in a gap or a stripped image)."""
    sym = _covering(image.symbols, offset)
    if sym is None:
        return ResolvedSample(raw=raw, image=image.name, symbol=NO_SYMBOLS)
    return ResolvedSample(
        raw=raw, image=image.name, symbol=sym.name, offset=offset - sym.offset
    )


def kernel_stage(stage: KernelSymbolStage, raw) -> ResolvedSample | None:
    base = stage.kernel.layout.kernel_base
    if raw.pc < base:
        if raw.kernel_mode:
            raise AddressSpaceError(f"{raw.pc:#x} is not a kernel address")
        return None
    return _symbolized(raw, stage.kernel.image, raw.pc - base)


def boot_image_stage(stage: BootImageStage, raw) -> ResolvedSample | None:
    vma = _vma_of(stage.kernel, raw.task_id, raw.pc)
    if (
        vma is None
        or vma.kind is not VmaKind.FILE
        or vma.image.name != BOOT_IMAGE_NAME
    ):
        return None
    off = raw.pc - vma.start + vma.image_offset
    entry = _covering(stage.rvm_map.entries, off)
    if entry is None:
        return ResolvedSample(
            raw=raw, image=RVM_MAP_IMAGE_LABEL, symbol=NO_SYMBOLS
        )
    return ResolvedSample(
        raw=raw, image=RVM_MAP_IMAGE_LABEL, symbol=entry.name,
        offset=off - entry.offset,
    )


def task_vma_stage(stage: TaskVmaStage, raw) -> ResolvedSample | None:
    vma = _vma_of(stage.kernel, raw.task_id, raw.pc)
    if vma is None:
        return None
    if vma.kind is VmaKind.FILE:
        return _symbolized(raw, vma.image, raw.pc - vma.start + vma.image_offset)
    label = (
        f"anon (range:{vma.start:#x}-{vma.end:#x})"
        if vma.kind is VmaKind.ANON
        else vma.kind.value
    )
    return ResolvedSample(raw=raw, image=label, symbol=NO_SYMBOLS)


def hypervisor_stage(stage: HypervisorStage, raw) -> ResolvedSample | None:
    if raw.pc < XEN_BASE:
        return None
    image = stage.hypervisor.image
    sym = _covering(image.symbols, raw.pc - XEN_BASE)
    return ResolvedSample(
        raw=raw, image=image.name,
        symbol=sym.name if sym is not None else NO_SYMBOLS,
    )


def fallback_stage(stage: FallbackStage, raw) -> ResolvedSample:
    return ResolvedSample(raw=raw, image=UNKNOWN_IMAGE, symbol=NO_SYMBOLS)


#: The per-sample reference for each stage type without chain state of
#: its own (the JIT and dispatch stages are methods of :class:`Oracle`).
REFERENCES = {
    KernelSymbolStage: kernel_stage,
    BootImageStage: boot_image_stage,
    TaskVmaStage: task_vma_stage,
    HypervisorStage: hypervisor_stage,
    FallbackStage: fallback_stage,
}


def walk(codemaps, epoch: int, pc: int, backward: bool = True):
    """The paper's backward epoch walk (§3.2) for one address.

    Starts at the sample's epoch, clamped to the newest loaded or
    quarantined epoch (-1 means the newest), and steps down to the oldest
    one (``backward=False``: the sample's epoch alone).  Returns
    ``(record, epoch)`` from the first map with a record covering ``pc``,
    :data:`RESOLVE_BLOCKED` at a quarantined epoch, else None.
    """
    known = set(codemaps.epochs) | codemaps.quarantined
    if not known:
        return None
    top = max(known) if epoch < 0 else min(epoch, max(known))
    for e in range(top, (min(known) if backward else top) - 1, -1):
        if e in codemaps.quarantined:
            return RESOLVE_BLOCKED
        cm = codemaps.map_for(e)
        if cm is None:
            continue
        for record in cm.records:
            if record.contains(pc):
                return record, e
    return None


class Oracle:
    """Per-sample walk over one chain's stages, with its own counters."""

    def __init__(self, chain: ResolverChain) -> None:
        self.stages = [*chain.stages, chain.fallback]
        self.hits = [0] * len(self.stages)
        self.misses = [0] * len(self.stages)
        self.jit: Counter = Counter()
        self.inner = {
            domain: Oracle(c)
            for stage in chain.stages
            if isinstance(stage, DomainDispatchStage)
            for domain, c in stage.chains.items()
        }

    def resolve(self, sample) -> ResolvedSample:
        for idx, stage in enumerate(self.stages):
            if isinstance(stage, JitEpochStage):
                resolved = self._jit(stage, sample)
            elif isinstance(stage, DomainDispatchStage):
                if sample.domain_id not in self.inner:
                    raise ProfilerError(
                        f"no resolver for domain {sample.domain_id}"
                    )
                resolved = self.inner[sample.domain_id].resolve(sample)
            else:
                resolved = REFERENCES[type(stage)](stage, sample.raw)
            if resolved is not None:
                self.hits[idx] += 1
                return resolved
            self.misses[idx] += 1
        raise AssertionError("the fallback stage declined a sample")

    def _jit(self, stage: JitEpochStage, sample) -> ResolvedSample | None:
        raw = sample.raw
        reg = stage._registrations.get(raw.task_id)
        if reg is None or not reg.covers(raw.pc):
            return None
        hit = walk(stage.codemaps, raw.epoch, raw.pc, stage.backward)
        if hit is RESOLVE_BLOCKED:
            if stage.strict:
                raise ProfilerError(
                    f"epoch walk for pc {raw.pc:#x} (epoch {raw.epoch}) "
                    "blocked by a quarantined code map; rerun the "
                    "pipeline in degraded mode (strict=False) to "
                    "account for salvaged sessions"
                )
            self.jit["blocked"] += 1
            return ResolvedSample(
                raw=raw, image=JIT_APP_IMAGE_LABEL, symbol=UNRESOLVED_JIT
            )
        if hit is None:
            self.jit["unresolved"] += 1
            return ResolvedSample(
                raw=raw, image=JIT_APP_IMAGE_LABEL, symbol=UNRESOLVED_JIT
            )
        record, found_epoch = hit
        self.jit["own" if found_epoch == raw.epoch else "earlier"] += 1
        return ResolvedSample(
            raw=raw, image=JIT_APP_IMAGE_LABEL, symbol=record.name,
            offset=raw.pc - record.address,
        )

    def _degraded(self) -> dict[str, int] | None:
        """Blocked-walk counts when a JIT stage here runs non-strict."""
        if any(
            isinstance(s, JitEpochStage) and not s.strict for s in self.stages
        ):
            return {"blocked_at_quarantine": self.jit["blocked"]}
        return None

    def stats_dict(self) -> dict[str, object]:
        """The ``stats_dict()`` shape."""
        entries = []
        degraded_any = False
        for idx, stage in enumerate(self.stages):
            entry: dict[str, object] = {
                "stage": stage.name,
                "hits": self.hits[idx],
                "misses": self.misses[idx],
            }
            if idx == len(self.stages) - 1:
                entry["terminal"] = True
            if isinstance(stage, JitEpochStage):
                n = sum(self.jit.values())
                resolved = self.jit["own"] + self.jit["earlier"]
                entry["detail"] = {
                    "jit_samples": n,
                    "resolved_in_own_epoch": self.jit["own"],
                    "resolved_in_earlier_epoch": self.jit["earlier"],
                    "unresolved": self.jit["unresolved"],
                    "blocked_at_quarantine": self.jit["blocked"],
                    "resolution_rate": resolved / n if n else 1.0,
                }
                degraded = self._degraded()
            elif isinstance(stage, DomainDispatchStage):
                entry["detail"] = {
                    f"dom{d}": o.stats_dict()
                    for d, o in sorted(self.inner.items())
                }
                parts = [
                    p for o in self.inner.values()
                    if (p := o._degraded()) is not None
                ]
                degraded = (
                    {"blocked_at_quarantine": sum(
                        p["blocked_at_quarantine"] for p in parts
                    )}
                    if parts else None
                )
            else:
                degraded = None
            if degraded is not None:
                entry["degraded"] = degraded
                degraded_any = True
            entries.append(entry)
        return {
            "stages": entries,
            "total_samples": sum(self.hits),
            "degraded": degraded_any,
        }


def oracle_report(
    chain: ResolverChain,
    samples: Iterable[object],
    events: tuple[str, ...] | None = None,
) -> tuple[ProfileReport, dict[str, object]]:
    """Resolve a sample stream the reference way: (report, stats)."""
    oracle = Oracle(chain)
    agg = StreamingAggregator(events)
    for sample in iter_pipeline_samples(samples):
        agg.add(oracle.resolve(sample))
    return agg.report(), oracle.stats_dict()


"""Resolver stages — the single "PC → symbol" vocabulary of the tree.

The chain offers a stage one *bucket* of distinct sample keys at a time:
the keys share ``(epoch, kernel_mode, task_id, domain_id)`` and their
PCs arrive as one ascending run.  A stage cuts that run at its own range
edges with ``bisect`` (the kernel base, a heap registration, a task's
VMAs, ``XEN_BASE``), looks each PC of its slices up once, and answers
each PC with a :data:`Claim` or None to pass it down the chain.  Stock
``opreport``, VIProf, and the multi-domain XenoProf report are nothing
but different orderings of these stages (see :mod:`repro.pipeline` for
the canonical compositions):

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
The per-sample reference these stages are held to lives in the tests
(``tests/pipeline/oracle.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.errors import AddressSpaceError, ProfilerError
from repro.jvm.bootimage import BOOT_IMAGE_NAME, RVM_MAP_IMAGE_LABEL
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.os.address_space import VMA, AddressSpace, VmaKind
from repro.os.binary import NO_SYMBOLS, BinaryImage
from repro.os.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.jvm.bootimage import RvmMap
    from repro.pipeline.resolver import ResolverChain
    from repro.viprof.codemap import CodeMapIndex
    from repro.viprof.runtime_profiler import VmRegistration
    from repro.xen.hypervisor import Hypervisor

__all__ = [
    "UNKNOWN_IMAGE",
    "UNRESOLVED_JIT",
    "Bucket",
    "Claim",
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

#: What a bucket's keys share besides the PC: ``(epoch, kernel_mode,
#: task_id, domain_id)``, the tail of
#: :func:`~repro.pipeline.source.sample_key`.
Bucket = tuple[int, int, int, int | None]

#: A stage's answer for one PC: ``(image, symbol, offset, outcome)``.
#: ``offset`` is the PC's byte offset within the symbol (-1 when
#: unknown); ``outcome`` labels the claim for the chain's counter (the
#: JIT stage's ``own``/``earlier``/``unresolved``/``blocked``, None for
#: the other stages).
Claim = tuple[str, str, int, str | None]


class ResolverStage:
    """One step of a resolver chain.

    :meth:`resolve_run` answers one bucket: ``pcs`` are the bucket's
    pending distinct PCs in ascending order and ``counts[i]`` is how
    many samples ``pcs[i]`` stands for.  It returns one entry per PC,
    aligned with ``pcs``: a :data:`Claim`, or None to pass the PC to
    the next stage.  ``name`` keys the chain's per-stage counters.

    ``chains`` lists the inner chains a stage routes to (the Xen domain
    dispatcher); the outer chain resets, exports and absorbs their
    counters along with its own.
    """

    name: str = "stage"
    chains: "Mapping[int, ResolverChain]" = MappingProxyType({})

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        raise NotImplementedError

    def detail_dict(self, outcomes: Counter) -> dict[str, object] | None:
        """Stage-specific detail for the chain's stats entry, derived
        from the stage's claim counts by outcome (None: no detail)."""
        return None

    def degraded_dict(self, outcomes: Counter) -> dict[str, int] | None:
        """Degradation counters for a stage running in degraded
        (post-salvage) mode; None when the stage cannot degrade."""
        return None


def _symbol_claim(image: BinaryImage, offset: int) -> Claim:
    """An image offset through the image's ELF symbols."""
    sym = image.symbol_at(offset)
    if sym is None:
        return (image.name, NO_SYMBOLS, -1, None)
    return (image.name, sym.name, offset - sym.offset, None)


def _vma_slices(
    space: AddressSpace, pcs: Sequence[int]
) -> Iterator[tuple[VMA, int, int]]:
    """``(vma, lo, hi)`` for each VMA of ``space``, in address order,
    that holds some of the ascending ``pcs``: ``pcs[lo:hi]`` are the
    ones it holds."""
    lo, n = 0, len(pcs)
    for vma in space:
        lo = bisect_left(pcs, vma.start, lo)
        if lo == n:
            return
        hi = bisect_left(pcs, vma.end, lo)
        if hi > lo:
            yield vma, lo, hi
            lo = hi


class KernelSymbolStage(ResolverStage):
    """Kernel-mode samples (or kernel-range PCs) against ``vmlinux``.

    A kernel-mode bucket is the kernel's whole; a user PC in one is a
    corrupt sample and raises :class:`~repro.errors.AddressSpaceError`
    for the lowest such PC.
    """

    name = "kernel"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        base = self.kernel.layout.kernel_base
        if bucket[1]:
            if pcs and pcs[0] < base:
                raise AddressSpaceError(f"{pcs[0]:#x} is not a kernel address")
            start = 0
        else:
            start = bisect_left(pcs, base)
        image = self.kernel.image
        out: list[Claim | None] = [None] * start
        out.extend(_symbol_claim(image, pc - base) for pc in pcs[start:])
        return out


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

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        """The task's heap ``[heap_low, heap_high)`` is one slice, and
        one epoch walk answers it
        (:meth:`~repro.viprof.codemap.CodeMapIndex.resolve_run`)."""
        from repro.viprof.codemap import RESOLVE_BLOCKED

        out: list[Claim | None] = [None] * len(pcs)
        epoch, _, task_id, _ = bucket
        reg = self._registrations.get(task_id)
        if reg is None:
            return out
        lo = bisect_left(pcs, reg.heap_low)
        hi = bisect_left(pcs, reg.heap_high, lo)
        if lo == hi:
            return out
        hits = self.codemaps.resolve_run(
            epoch, pcs[lo:hi], backward=self.backward
        )
        for i, hit in enumerate(hits, lo):
            if hit is RESOLVE_BLOCKED:
                if self.strict:
                    raise ProfilerError(
                        f"epoch walk for pc {pcs[i]:#x} (epoch {epoch}) "
                        "blocked by a quarantined code map; rerun the "
                        "pipeline in degraded mode (strict=False) to "
                        "account for salvaged sessions"
                    )
                out[i] = (JIT_APP_IMAGE_LABEL, UNRESOLVED_JIT, -1, "blocked")
            elif hit is None:
                out[i] = (
                    JIT_APP_IMAGE_LABEL, UNRESOLVED_JIT, -1, "unresolved"
                )
            else:
                record, found_epoch = hit
                out[i] = (
                    JIT_APP_IMAGE_LABEL, record.name, pcs[i] - record.address,
                    "own" if found_epoch == epoch else "earlier",
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

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        """The slice is the task's boot-image mapping; each PC in it is
        looked up in ``RVM.map``."""
        out: list[Claim | None] = [None] * len(pcs)
        proc = self.kernel.process(bucket[2])
        if proc is None:
            return out
        resolve = self.rvm_map.resolve
        for vma in proc.address_space:
            if vma.kind is not VmaKind.FILE:
                continue
            assert vma.image is not None
            if vma.image.name != BOOT_IMAGE_NAME:
                continue
            lo = bisect_left(pcs, vma.start)
            delta = vma.image_offset - vma.start
            for i in range(lo, bisect_left(pcs, vma.end, lo)):
                off = pcs[i] + delta
                entry = resolve(off)
                out[i] = (
                    (RVM_MAP_IMAGE_LABEL, NO_SYMBOLS, -1, None)
                    if entry is None
                    else (RVM_MAP_IMAGE_LABEL, entry.name, off - entry.offset,
                          None)
                )
        return out


class TaskVmaStage(ResolverStage):
    """User PCs through the owning task's VMA set (stock opreport)."""

    name = "task-vma"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        """One slice per VMA of the task, in address order: a
        file-backed slice resolves through the image's ELF symbols, any
        other takes the region's one label."""
        out: list[Claim | None] = [None] * len(pcs)
        proc = self.kernel.process(bucket[2])
        if proc is None:
            return out
        for vma, lo, hi in _vma_slices(proc.address_space, pcs):
            if vma.kind is VmaKind.FILE:
                assert vma.image is not None
                image = vma.image
                delta = vma.image_offset - vma.start
                out[lo:hi] = [
                    _symbol_claim(image, pc + delta) for pc in pcs[lo:hi]
                ]
            else:
                out[lo:hi] = [(vma.label(), NO_SYMBOLS, -1, None)] * (hi - lo)
        return out


class HypervisorStage(ResolverStage):
    """Xen-layer PCs against the hypervisor's own symbol table."""

    name = "hypervisor"

    def __init__(self, hypervisor: "Hypervisor") -> None:
        self.hypervisor = hypervisor

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        # Imported here: the xen package imports the pipeline.
        from repro.xen.hypervisor import XEN_BASE

        start = bisect_left(pcs, XEN_BASE)
        image = self.hypervisor.image
        out: list[Claim | None] = [None] * start
        out.extend(
            (image.name, image.symbol_name_at(pc - XEN_BASE), -1, None)
            for pc in pcs[start:]
        )
        return out


class DomainDispatchStage(ResolverStage):
    """Hands each bucket to its domain's own resolver chain.

    A bucket shares its domain id, so the whole bucket — with its sample
    counts — goes to that domain's chain in one
    :meth:`~repro.pipeline.resolver.ResolverChain.resolve_groups` call,
    which counts the claims there.

    Terminal: a sample tagged with an unknown domain is a corrupt stream,
    reported as a :class:`~repro.errors.ProfilerError` rather than
    silently falling through to ``(unknown)``.
    """

    name = "domain-dispatch"

    def __init__(self, chains: Mapping[int, "ResolverChain"]) -> None:
        self.chains = dict(chains)

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        domain = bucket[3]
        chain = self.chains.get(domain)  # type: ignore[arg-type]
        if chain is None:
            raise ProfilerError(f"no resolver for domain {domain}")
        keys = [(pc, *bucket) for pc in pcs]
        entries = chain.resolve_groups(dict(zip(keys, counts)))
        return [
            (e.image, e.symbol, e.offset, None)
            for e in map(entries.__getitem__, keys)
        ]

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

    def resolve_run(
        self, bucket: Bucket, pcs: Sequence[int], counts: Sequence[int]
    ) -> list[Claim | None]:
        return [(UNKNOWN_IMAGE, NO_SYMBOLS, -1, None)] * len(pcs)

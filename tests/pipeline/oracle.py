"""The reference resolver: one sample at a time, straight down the stages.

Production resolution (:meth:`repro.pipeline.ResolverChain.resolve_groups`)
groups samples by key, walks bucket by bucket and derives its
statistics from one claim counter.  This oracle does none of that: it
offers every sample to every stage in order, resolves the JIT step with
its own per-address backward walk (:func:`walk`, a linear scan of each
map's records — it shares neither the production walk nor its interval
table), recurses into the domain chain for the Xen dispatch, and counts
hits, misses and the JIT split by hand as it goes.  Parity tests compare
production reports and the whole ``stats_dict()`` against it.

It reads a chain's stages but never its counters, so a chain can be
handed to the oracle and to production alike.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.errors import ProfilerError
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.pipeline import (
    UNRESOLVED_JIT,
    DomainDispatchStage,
    JitEpochStage,
    ResolverChain,
    iter_pipeline_samples,
)
from repro.profiling.model import ResolvedSample
from repro.profiling.report import ProfileReport, StreamingAggregator
from repro.viprof.codemap import RESOLVE_BLOCKED

__all__ = ["Oracle", "oracle_report", "walk"]


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
                resolved = stage.resolve(sample)
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
                    f"epoch walk for pc {raw.pc:#x} blocked by a "
                    "quarantined code map"
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


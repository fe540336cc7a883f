"""The resolver chain: ordered stages, one resolution path, one counter.

A :class:`ResolverChain` is the pipeline's "PC → symbol" engine.  PCs
are offered to each stage in order; the first stage to answer one with
a claim takes it.  PCs no stage claims fall through to the terminal
fallback stage (``(unknown)`` attribution by default).

Every caller — the decode-chunk loop, :meth:`ResolverChain.resolve_stream`
and :meth:`ResolverChain.resolve`, and the Xen domain dispatcher handing
a bucket to a domain's chain — goes through :meth:`ResolverChain.resolve_groups`:

1. samples arrive grouped by resolution key
   (:func:`~repro.pipeline.source.sample_key`) with a count per key;
2. the distinct keys are sorted into buckets sharing ``(epoch,
   kernel_mode, task_id, domain_id)`` — one ascending PC run each — and
   each bucket is walked down the stages once
   (:meth:`ResolverChain.resolve_key_run`): every stage takes the PCs
   still pending and cuts them at its range edges, the JIT stage
   answering its slice with one batched backward epoch walk;
3. every key's claim is counted ``count`` times in one
   ``Counter[(claim_index, outcome)]``.

Statistics are *derived* from that counter: a stage's hits are the claims
at its index, its misses the claims further down, and stage detail (the
JIT own/earlier-epoch split) comes from the outcomes counted at its index
(:meth:`ResolverChain.stats_dict`).  How the samples were grouped never
shows in them, and shard workers merge by adding counters
(:meth:`ResolverChain.absorb_stats`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import ProfilerError
from repro.pipeline.source import (
    PipelineSample,
    iter_pipeline_samples,
    sample_key,
)
from repro.pipeline.stages import FallbackStage, ResolverStage
from repro.profiling.model import ResolvedSample

__all__ = ["Resolution", "StageStats", "ResolverChain"]

#: Samples :meth:`ResolverChain.resolve_stream` groups per walk.
STREAM_CHUNK = 4096


class Resolution(NamedTuple):
    """The outcome of one stage walk for one key.

    ``claim`` is ``(claim_index, outcome)``: the position of the claiming
    stage in the chain (``len(stages)`` for the terminal fallback) and the
    stage's outcome label (the JIT stage's ``own``/``earlier``/``blocked``
    /``unresolved``; None for stages without one).  It is the key the
    chain counts claims under.
    """

    image: str
    symbol: str
    offset: int
    claim: tuple[int, str | None]


@dataclass
class StageStats:
    """Hit/miss counters for one stage of a chain.

    ``hits`` counts samples the stage claimed; ``misses`` counts samples it
    was offered and passed down the chain.  ``terminal`` marks a stage that
    *cannot* pass a sample on (the chain's fallback): its misses are zero
    by construction — ``offered == hits`` — because the chain refuses a
    fallback that declines a sample.  Counters are derived, never merged:
    shards merge the chain's claim counter (:meth:`ResolverChain.
    absorb_stats`).
    """

    name: str
    hits: int = 0
    misses: int = 0
    terminal: bool = False

    @property
    def offered(self) -> int:
        return self.hits + self.misses


def _bucket_order(item: tuple[tuple, list[tuple]]) -> tuple:
    # Buckets by (epoch, kernel_mode, task, domain).  domain_id is None
    # for single-stack streams; map it below any real domain so the sort
    # never compares None with int.
    epoch, kmode, task, domain = item[0]
    return (epoch, kmode, task, -1 if domain is None else domain)


class ResolverChain:
    """Ordered resolver stages plus a terminal fallback.

    The chain is the only place resolution order lives: ``opreport``,
    VIProf, and XenoProf reports differ solely in the stage list they are
    built from (see the composition helpers in :mod:`repro.pipeline`).
    """

    def __init__(
        self,
        stages: Sequence[ResolverStage],
        fallback: ResolverStage | None = None,
    ) -> None:
        self.stages = list(stages)
        self.fallback = fallback if fallback is not None else FallbackStage()
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ProfilerError(f"duplicate stage names in chain: {names}")
        self._by_name = {s.name: s for s in self.stages}
        self._by_name[self.fallback.name] = self.fallback
        if len(self._by_name) != len(self.stages) + 1:
            raise ProfilerError(
                f"fallback stage name {self.fallback.name!r} collides "
                f"with a chain stage"
            )
        #: Samples claimed, keyed ``(claim_index, outcome)``; the fallback's
        #: index is ``len(stages)``.  Every statistic is derived from it.
        self.outcomes: Counter = Counter()

    def stage(self, name: str) -> ResolverStage:
        """Look a stage up by name (e.g. ``chain.stage("jit-epoch")``)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ProfilerError(f"no stage named {name!r} in chain") from None

    @property
    def _all_stages(self) -> list[ResolverStage]:
        return [*self.stages, self.fallback]

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------

    def resolve_groups(
        self, groups: Mapping[tuple, int]
    ) -> dict[tuple, Resolution]:
        """Resolve samples grouped by key (key → sample count) and count
        every sample's claim; returns each key's resolution.

        The one resolution path: one :meth:`resolve_key_run` per bucket
        of distinct keys.
        """
        runs: dict[tuple, list[tuple]] = defaultdict(list)
        for key in groups:
            runs[key[1:]].append(key)
        entries: dict[tuple, Resolution] = {}
        for _, run in sorted(runs.items(), key=_bucket_order):
            # A bucket's keys differ only in the pc, so this sorts by pc.
            run.sort()
            entries.update(self.resolve_key_run(run, groups))
        outcomes = self.outcomes
        for key, count in groups.items():
            outcomes[entries[key].claim] += count
        return entries

    def resolve_key_run(
        self, keys: Sequence[tuple], counts: Mapping[tuple, int]
    ) -> dict[tuple, Resolution]:
        """Walk the stages once for one bucket of **distinct** keys
        sharing ``(epoch, kernel_mode, task_id, domain_id)``, PCs
        ascending.  Each stage answers the PCs still pending with one
        :meth:`~repro.pipeline.stages.ResolverStage.resolve_run` call;
        the fallback claims the rest.  Counts nothing: the caller
        (:meth:`resolve_groups`) counts the claims."""
        bucket = keys[0][1:]
        all_pcs = [key[0] for key in keys]
        all_counts = [counts[key] for key in keys]
        pcs, weights = all_pcs, all_counts
        entries: dict[tuple, Resolution] = {}
        pending: Sequence[int] = range(len(keys))
        last = len(self.stages)
        for idx, stage in enumerate(self._all_stages):
            still: list[int] = []
            claims = stage.resolve_run(bucket, pcs, weights)
            for i, claim in zip(pending, claims):
                if claim is None:
                    still.append(i)
                else:
                    image, symbol, offset, outcome = claim
                    entries[keys[i]] = Resolution(
                        image, symbol, offset, (idx, outcome)
                    )
            if not still:
                break
            if idx == last:  # a fallback must be terminal
                raise ProfilerError(
                    f"fallback stage {self.fallback.name!r} declined a sample"
                )
            pending = still
            pcs = [all_pcs[i] for i in still]
            weights = [all_counts[i] for i in still]
        return entries

    def resolve(self, sample: PipelineSample) -> ResolvedSample:
        """Resolve one sample, counting which stage claimed it."""
        key = sample_key(sample)
        entry = self.resolve_groups({key: 1})[key]
        return ResolvedSample(
            raw=sample.raw, image=entry.image, symbol=entry.symbol,
            offset=entry.offset,
        )

    def resolve_stream(
        self, samples: Iterable[object]
    ) -> Iterator[ResolvedSample]:
        """Stream resolution: raw, domain-tagged, or pipeline samples in;
        resolved samples out, in order, resolved :data:`STREAM_CHUNK` at
        a time (each batch walks its own distinct keys)."""
        it = iter_pipeline_samples(samples)
        while batch := list(islice(it, STREAM_CHUNK)):
            keys = [sample_key(s) for s in batch]
            entries = self.resolve_groups(Counter(keys))
            for sample, key in zip(batch, keys):
                e = entries[key]
                yield ResolvedSample(
                    raw=sample.raw, image=e.image, symbol=e.symbol,
                    offset=e.offset,
                )

    # ------------------------------------------------------------------
    # statistics (all derived from ``outcomes``)
    # ------------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        """Samples this chain has resolved: every sample is claimed by
        exactly one stage (the fallback is terminal)."""
        return sum(self.outcomes.values())

    def _claims(self) -> list[Counter]:
        """Per stage, in chain order (fallback last): samples claimed,
        by outcome."""
        claims = [Counter() for _ in self._all_stages]
        for (idx, outcome), n in self.outcomes.items():
            claims[idx][outcome] += n
        return claims

    def stage_outcomes(self, name: str) -> Counter:
        """Samples the named stage claimed, by outcome."""
        return self._claims()[self._all_stages.index(self.stage(name))]

    def stats(self) -> list[StageStats]:
        """Per-stage counters in chain order (fallback last): a stage's
        misses are the samples claimed further down the chain."""
        claimed = [c.total() for c in self._claims()]
        below = sum(claimed)
        out = []
        for stage, hits in zip(self._all_stages, claimed):
            below -= hits
            out.append(
                StageStats(
                    stage.name, hits, below, terminal=stage is self.fallback
                )
            )
        return out

    def stats_dict(self) -> dict[str, object]:
        """JSON-able snapshot of the chain's counters, including any
        stage-specific detail (e.g. the JIT epoch split), degradation
        counters for stages running in degraded (post-salvage) mode, and
        ``total_samples`` as the denominator."""
        stages: list[dict[str, object]] = []
        degraded_any = False
        for st, stage, outcomes in zip(
            self.stats(), self._all_stages, self._claims()
        ):
            entry: dict[str, object] = {
                "stage": st.name,
                "hits": st.hits,
                "misses": st.misses,
            }
            if st.terminal:
                entry["terminal"] = True
            detail = stage.detail_dict(outcomes)
            if detail is not None:
                entry["detail"] = detail
            degraded = stage.degraded_dict(outcomes)
            if degraded is not None:
                entry["degraded"] = degraded
                degraded_any = True
            stages.append(entry)
        return {
            "stages": stages,
            "total_samples": self.total_samples,
            "degraded": degraded_any,
        }

    # ------------------------------------------------------------------
    # shard-worker support (see repro.pipeline.parallel)
    # ------------------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero every counter, inner chains included — a shard worker
        resets its chain copy so the exported counters are pure deltas."""
        self.outcomes.clear()
        for stage in self.stages:
            for inner in stage.chains.values():
                inner.reset_stats()

    def export_stats(self) -> dict[str, object]:
        """Picklable counter snapshot for cross-process merging."""
        return {
            "stages": [s.name for s in self._all_stages],
            "outcomes": dict(self.outcomes),
            "inner": {
                s.name: {d: c.export_stats() for d, c in s.chains.items()}
                for s in self.stages
                if s.chains
            },
        }

    def absorb_stats(self, snapshot: dict[str, object]) -> None:
        """Fold a worker chain's exported counters into this chain by
        counter addition, so sequential resolution and sharded
        resolution plus absorption report identical statistics
        (property-tested)."""
        names = [s.name for s in self._all_stages]
        if snapshot.get("stages") != names:
            raise ProfilerError(
                f"cannot absorb stats for stages {snapshot.get('stages')} "
                f"into chain {names}: worker/parent chain shapes diverged"
            )
        self.outcomes.update(snapshot["outcomes"])
        for name, chains in snapshot["inner"].items():
            stage = self.stage(name)
            for domain, inner in chains.items():
                if domain not in stage.chains:
                    raise ProfilerError(
                        f"cannot absorb stats for unknown domain {domain}"
                    )
                stage.chains[domain].absorb_stats(inner)

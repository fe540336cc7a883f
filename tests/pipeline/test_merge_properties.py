"""Merge properties: shard-and-merge must equal the sequential pass.

Hypothesis-style property tests over seeded random streams and random
split points (plain :mod:`random` — the CI image carries no property
testing library): for every mergeable statistic in the pipeline,

    merge(consume(shard_a), consume(shard_b)) == consume(shard_a + shard_b)

holds exactly — counters, row order, event order, and rendered bytes.
"""

import random
from collections import Counter

import pytest

from repro.errors import ProfilerError
from repro.pipeline.stages import JitStageStats
from repro.profiling.model import RawSample, ResolvedSample
from repro.profiling.report import StreamingAggregator, build_report
from tests.pipeline.oracle import without_cache

EVENTS = ("GLOBAL_POWER_EVENTS", "BSQ_CACHE_REFERENCE", "ITLB_MISS")
IMAGES = ("vmlinux", "JIT.App", "RVM.map", "libc.so", "(unknown)")
SYMBOLS = tuple(f"sym{i}" for i in range(12))


def random_stream(rng: random.Random, n: int) -> list[ResolvedSample]:
    out = []
    for i in range(n):
        out.append(
            ResolvedSample(
                raw=RawSample(
                    pc=rng.randrange(1, 1 << 32),
                    event_name=rng.choice(EVENTS),
                    task_id=rng.randrange(1, 4),
                    kernel_mode=rng.random() < 0.3,
                    cycle=i,
                    epoch=rng.randrange(-1, 4),
                ),
                image=rng.choice(IMAGES),
                symbol=rng.choice(SYMBOLS),
            )
        )
    return out


def split_points(rng: random.Random, n: int, shards: int) -> list[int]:
    cuts = sorted(rng.randrange(0, n + 1) for _ in range(shards - 1))
    return [0, *cuts, n]


def report_key(agg: StreamingAggregator):
    """Everything observable about an aggregate, order included."""
    rep = agg.report()
    return (
        rep.events,
        rep.totals,
        [(r.image, r.symbol, r.counts) for r in rep.rows],
        rep.format_table(),
        agg.samples_seen,
    )


class TestAggregatorMergeProperty:
    @pytest.mark.parametrize("seed", range(12))
    def test_merge_of_shards_equals_concatenated_stream(self, seed):
        rng = random.Random(seed)
        stream = random_stream(rng, rng.randrange(0, 400))
        shards = rng.randrange(2, 6)
        cuts = split_points(rng, len(stream), shards)
        fixed = (
            None if rng.random() < 0.5 else tuple(EVENTS[:rng.randrange(1, 4)])
        )

        whole = StreamingAggregator(fixed).extend(stream)
        merged = StreamingAggregator(fixed)
        for lo, hi in zip(cuts, cuts[1:]):
            merged.merge(StreamingAggregator(fixed).extend(stream[lo:hi]))
        assert report_key(merged) == report_key(whole)

    def test_event_filter_drops_count_toward_samples_seen(self):
        stream = random_stream(random.Random(99), 200)
        fixed = (EVENTS[0],)
        whole = StreamingAggregator(fixed).extend(stream)
        merged = StreamingAggregator(fixed)
        merged.merge(StreamingAggregator(fixed).extend(stream[:77]))
        merged.merge(StreamingAggregator(fixed).extend(stream[77:]))
        assert merged.samples_seen == whole.samples_seen == 200

    def test_mismatched_event_selection_rejected(self):
        with pytest.raises(ProfilerError):
            StreamingAggregator(("a",)).merge(StreamingAggregator(("b",)))

    def test_build_report_matches_merged_report_bytes(self):
        rng = random.Random(5)
        stream = random_stream(rng, 300)
        merged = StreamingAggregator()
        merged.merge(StreamingAggregator().extend(stream[:150]))
        merged.merge(StreamingAggregator().extend(stream[150:]))
        assert (
            merged.report().format_table()
            == build_report(stream).format_table()
        )


class TestStageStatsMergeProperty:
    """Shard merge is counter addition: a chain that absorbs its shards'
    exported claim counters derives per-stage counters that are the exact
    sums of the shards' own."""

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_is_exact_sum(self, seed):
        from repro.os.kernel import Kernel
        from repro.pipeline import opreport_chain

        rng = random.Random(seed)
        kernel = Kernel()
        kpc = kernel.kernel_pc("schedule")
        parent = opreport_chain(kernel)
        shards = []
        for _ in range(rng.randrange(2, 6)):
            shard = opreport_chain(kernel)
            stream = [
                RawSample(
                    pc=kpc if kmode else rng.randrange(1, 1 << 20),
                    event_name=EVENTS[0], task_id=1, kernel_mode=kmode,
                    cycle=i,
                )
                for i in range(rng.randrange(50))
                for kmode in [rng.random() < 0.4]
            ]
            list(shard.resolve_stream(stream))
            parent.absorb_stats(shard.export_stats())
            shards.append(shard.stats())
        for i, merged in enumerate(parent.stats()):
            parts = [stats[i] for stats in shards]
            assert merged.hits == sum(p.hits for p in parts)
            assert merged.misses == sum(p.misses for p in parts)
            assert merged.offered == sum(p.offered for p in parts)


class TestJitStatsMergeProperty:
    """The JIT detail is linear in the stage's outcome counter, so adding
    shard counters adds their details exactly."""

    @pytest.mark.parametrize("seed", range(8))
    def test_merge_is_exact_sum(self, seed):
        rng = random.Random(seed)
        parts = [
            Counter({
                o: rng.randrange(500)
                for o in ("own", "earlier", "unresolved", "blocked")
            })
            for _ in range(rng.randrange(2, 6))
        ]
        merged = JitStageStats.from_outcomes(sum(parts, Counter()))
        details = [JitStageStats.from_outcomes(p) for p in parts]
        for field in (
            "jit_samples", "resolved_in_own_epoch",
            "resolved_in_earlier_epoch", "unresolved",
            "blocked_at_quarantine",
        ):
            assert getattr(merged, field) == sum(
                getattr(d, field) for d in details
            )
        whole = sum(d.resolved for d in details)
        assert merged.resolved == whole
        if merged.jit_samples:
            assert merged.resolution_rate == whole / merged.jit_samples


class TestChainShardMergeProperty:
    """End-to-end: resolving random splits of a real session on chain
    copies and absorbing their exported counters equals one sequential
    pass — the whole ``stats_dict()`` but the memo's own counters."""

    @pytest.fixture(scope="class")
    def post(self):
        from repro.system.api import viprof_profile
        from repro.workloads import by_name

        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.12, seed=11
        ).viprof_report().post

    def stats_key(self, chain):
        return without_cache(chain.stats_dict())

    @pytest.mark.parametrize("seed", range(6))
    def test_absorbed_shards_equal_sequential(self, seed, post):
        rng = random.Random(seed)
        samples = list(post.source)
        cuts = split_points(rng, len(samples), rng.randrange(2, 5))

        sequential = post._build_chain()
        list(sequential.resolve_stream(samples))

        parent = post._build_chain()
        for lo, hi in zip(cuts, cuts[1:]):
            worker = post._build_chain()
            list(worker.resolve_stream(samples[lo:hi]))
            parent.absorb_stats(worker.export_stats())
        assert self.stats_key(parent) == self.stats_key(sequential)

    def test_export_stats_survives_pickle(self, post):
        import pickle

        chain = post._build_chain()
        for s in post.source:
            chain.resolve(s)
        snapshot = pickle.loads(pickle.dumps(chain.export_stats()))
        parent = post._build_chain()
        parent.absorb_stats(snapshot)
        assert self.stats_key(parent) == self.stats_key(chain)

    def test_absorb_rejects_unknown_stage(self, post):
        chain = post._build_chain()
        with pytest.raises(ProfilerError):
            chain.absorb_stats(
                {"stages": [("nope", 1, 2, False)], "details": {}}
            )

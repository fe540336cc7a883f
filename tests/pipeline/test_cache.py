"""The epoch-aware resolution memo, and the memo-free codemap walk.

Memoization is transparency-tested: a memoized run must match an
unmemoized run byte for byte — report *and* per-stage statistics —
because the chain counts a memo hit's claim exactly like a walk's.
"""

import pytest

from repro.errors import ProfilerError, SampleFormatError
from repro.pipeline import (
    ResolverChain,
    run_pipeline,
    sample_key,
)
from repro.pipeline.cache import CachedResolution, ResolutionCache
from repro.pipeline.source import PipelineSample
from repro.pipeline.stages import FallbackStage
from repro.profiling.model import RawSample
from repro.system.api import viprof_profile
from repro.viprof.codemap import CodeMap, CodeMapIndex, CodeMapRecord
from repro.workloads import by_name


def entry(i: int) -> CachedResolution:
    return CachedResolution(
        image="img", symbol=f"sym{i}", offset=i, claim=(0, None)
    )


class TestResolutionCache:
    def test_counts_hits_and_misses(self):
        c = ResolutionCache(capacity=4)
        found, missing = c.lookup({("k",): 3})
        assert (found, missing) == ({}, [("k",)])
        # One walk for the key, its two repeats ride along as hits.
        assert (c.hits, c.misses) == (2, 1)
        c.store({("k",): entry(1)})
        found, missing = c.lookup({("k",): 2, ("j",): 1})
        assert found[("k",)].symbol == "sym1"
        assert missing == [("j",)]
        assert (c.hits, c.misses) == (4, 2)
        assert c.hit_rate == 4 / 6

    def test_full_memo_keeps_its_entries(self):
        c = ResolutionCache(capacity=2)
        c.store({("a",): entry(1), ("b",): entry(2)})
        c.store({("c",): entry(3)})  # no room: not inserted, none evicted
        assert len(c) == 2
        found, missing = c.lookup({("a",): 1, ("b",): 1, ("c",): 1})
        assert sorted(found) == [("a",), ("b",)]
        assert missing == [("c",)]

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ProfilerError):
            ResolutionCache(capacity=0)

    def test_clear_and_reset_counters(self):
        c = ResolutionCache(capacity=2)
        c.store({("a",): entry(1)})
        c.lookup({("a",): 1})
        c.absorb(5, 6, 7)
        c.clear()
        assert len(c) == 0
        assert c.stats_dict()["size"] == 0
        assert (c.hits, c.misses) == (0, 0)

    def test_stats_dict_shape(self):
        c = ResolutionCache(capacity=8)
        c.store({("a",): entry(1)})
        c.lookup({("a",): 1})
        d = c.stats_dict()
        assert d == {
            "capacity": 8, "size": 1, "hits": 1, "misses": 0,
            "hit_rate": 1.0,
        }

    def test_empty_cache_is_still_reported(self):
        # ResolutionCache defines __len__, so an *empty* cache is falsy;
        # stats_dict() must test `is not None`, not truthiness.
        chain = ResolverChain([])
        assert len(chain.cache) == 0
        assert chain.stats_dict()["cache"] is not None

    def test_pickle_ships_counters_not_entries(self):
        import pickle

        c = ResolutionCache(capacity=8)
        c.store({(i,): entry(i) for i in range(5)})
        c.lookup({(0,): 1, (99,): 1})
        clone = pickle.loads(pickle.dumps(c))
        assert (clone.hits, clone.misses) == (c.hits, c.misses)
        assert clone.capacity == c.capacity
        assert len(clone) == 0


class TestStageStatsInvariants:
    def samples(self, n=3):
        return [
            PipelineSample(raw=RawSample(
                pc=0x1000 + i, event_name="EV", task_id=1,
                kernel_mode=False, cycle=i,
            ))
            for i in range(n)
        ]

    def test_terminal_stage_with_misses_fails_check(self):
        # A fallback that declined a sample would leave the terminal
        # stage with misses; the chain refuses it instead of counting.
        class Declining(FallbackStage):
            def resolve(self, sample):
                return None

        chain = ResolverChain([], fallback=Declining())
        with pytest.raises(ProfilerError, match="declined"):
            chain.resolve(self.samples(1)[0])

    def test_terminal_stage_offered_equals_hits(self):
        chain = ResolverChain([])
        list(chain.resolve_stream(self.samples()))
        (st,) = chain.stats()
        assert st.terminal
        assert st.offered == st.hits == 3

    def test_merge_rejects_mismatched_stages(self):
        from repro.os.kernel import Kernel
        from repro.pipeline import opreport_chain

        worker = ResolverChain([])
        list(worker.resolve_stream(self.samples()))
        with pytest.raises(ProfilerError, match="diverged"):
            opreport_chain(Kernel()).absorb_stats(worker.export_stats())


class TestChainCacheTransparency:
    @pytest.fixture(scope="class")
    def run(self):
        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.12, seed=11
        )

    def test_cached_equals_uncached_bytes_and_stats(self, run):
        hot = run.viprof_report()
        post = hot.post
        chain = ResolverChain(post.chain.stages, cache_size=0)
        cold = run_pipeline(post.source, chain, events=post.event_names())
        assert hot.report.format_table() == cold.format_table()
        hs, cs = hot.stage_stats, chain.stats_dict()
        assert hs["stages"] == cs["stages"]
        assert hs["total_samples"] == cs["total_samples"]
        assert cs["cache"] is None
        assert hs["cache"]["hits"] + hs["cache"]["misses"] == (
            hs["total_samples"]
        )

    def test_memo_misses_once_per_distinct_key(self, run):
        post = run.viprof_report().post
        keys = [sample_key(s) for s in post.source]
        cache = post.chain.stats_dict()["cache"]
        assert cache["hits"] + cache["misses"] == post.chain.total_samples
        assert len(set(keys)) < cache["capacity"]  # the memo never filled
        assert cache["misses"] == len(set(keys)) == cache["size"]
        assert cache["hits"] == len(keys) - len(set(keys))

    def test_warm_chain_replays_counters_exactly(self, run):
        vr = run.viprof_report()
        post = vr.post
        first = post.chain.stats_dict()
        # Second pass over the same stream: every sample is a memo hit,
        # and every counter doubles — detail included.
        for resolved in post.resolved_samples():
            pass
        second = post.chain.stats_dict()
        assert second["cache"]["hits"] > first["cache"]["hits"]
        for a, b in zip(first["stages"], second["stages"]):
            assert (b["hits"], b["misses"]) == (2 * a["hits"], 2 * a["misses"])
        jit_first, jit_second = (
            next(e for e in d["stages"] if e["stage"] == "jit-epoch")["detail"]
            for d in (first, second)
        )
        for key in (
            "jit_samples", "resolved_in_own_epoch",
            "resolved_in_earlier_epoch", "unresolved",
        ):
            assert jit_second[key] == 2 * jit_first[key]

    def test_total_samples_is_stream_length(self, run):
        vr = run.viprof_report()
        assert vr.post.chain.total_samples == len(vr.post.read_samples())

    def test_xen_outer_chain_never_caches(self):
        from repro.os.kernel import Kernel
        from repro.pipeline import opreport_chain, xen_chain
        from repro.xen.hypervisor import Hypervisor

        inner = opreport_chain(Kernel())
        outer = xen_chain(Hypervisor(), {0: inner})
        # A memo hit above the dispatch would skip the domain chain's
        # counting, so only the domain chains memoize.
        assert outer.cache is None
        assert inner.cache is not None


class TestCodeMapMemo:
    """The backward walk keeps no memo (the chain's memo absorbs repeated
    keys): repeated and ablated walks are pure functions of ``(epoch,
    addr, backward)``."""

    def index(self) -> CodeMapIndex:
        rec = lambda a, name: CodeMapRecord(  # noqa: E731
            address=a, size=0x10, tier="O1", name=name
        )
        return CodeMapIndex({
            0: CodeMap(0, [rec(0x1000, "m.zero")]),
            1: CodeMap(1, [rec(0x2000, "m.one")]),
            3: CodeMap(3, [rec(0x3000, "m.three")]),
        })

    def test_memo_results_match_fresh_index(self):
        warm = self.index()
        for _ in range(2):  # the second round repeats every walk
            for epoch in (0, 1, 2, 3, 9):
                for addr in (0x1008, 0x2008, 0x3008, 0x9999):
                    fresh = self.index().resolve(epoch, addr)
                    assert warm.resolve(epoch, addr) == fresh

    def test_ablation_keys_separately(self):
        idx = self.index()
        assert idx.resolve(3, 0x1008, backward=True) is not None
        # Same (top, addr) with backward=False is a different walk.
        assert idx.resolve(3, 0x1008, backward=False) is None


class TestReaderHandleHygiene:
    def make(self, tmp_path, n=10):
        from tests.pipeline.test_parallel import write_sample_file

        return write_sample_file(tmp_path / "h.samples", n)

    def test_context_manager_releases_handle(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        with RecordFileReader(self.make(tmp_path)) as reader:
            assert reader._fh is not None
            n = sum(1 for _ in reader)
        assert n == 10
        assert reader._fh is None

    def test_closed_reader_can_still_iterate(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        reader = RecordFileReader(self.make(tmp_path))
        reader.close()
        assert sum(1 for _ in reader) == 10  # opens a private handle

    def test_concurrent_iterations_do_not_collide(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        with RecordFileReader(self.make(tmp_path)) as reader:
            outer = reader.iter_records()
            first = next(outer)
            inner = list(reader.iter_records())  # private handle
            rest = list(outer)
        assert len(inner) == 10
        assert [first, *rest] == inner

    def test_range_validation(self, tmp_path):
        from repro.profiling.record_codec import RecordFileReader

        with RecordFileReader(self.make(tmp_path)) as reader:
            with pytest.raises(SampleFormatError):
                list(reader.iter_field_chunks(start_record=11))
            with pytest.raises(SampleFormatError):
                list(reader.iter_field_chunks(0, 11))
            assert sum(len(c) for c in reader.iter_field_chunks(4, 6)) == 6

"""Sharded multi-process resolution: shard planning and output parity.

The contract under test (see :mod:`repro.pipeline.parallel`): sharding is
a pure performance feature — ``workers=N`` must produce byte-identical
reports *and* identical resolution statistics to the sequential pass, and
a shard plan must cover the directory's record stream exactly once, in
order, at aligned split points.
"""

from pathlib import Path

import pytest

from repro.errors import ProfilerError
from repro.pipeline.parallel import (
    MAX_AUTO_WORKERS,
    SPLIT_ALIGN_RECORDS,
    ShardChunk,
    plan_shards,
    resolve_workers,
    run_parallel_pipeline,
)
from repro.pipeline.source import DirectorySource
from repro.profiling.model import RawSample
from repro.profiling.record_codec import (
    CORE_CODEC,
    RecordFileReader,
    RecordFileWriter,
)
from repro.system.api import viprof_profile
from repro.viprof.postprocess import ViprofReport
from repro.workloads import by_name
from tests.pipeline.oracle import without_cache

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "golden"

#: Records per replicated sample file: enough that two and four workers
#: split a file at an aligned record inside it.
MULTI_SHARD_RECORDS = 3 * SPLIT_ALIGN_RECORDS


def write_sample_file(path: Path, n_records: int, event: str = "EV") -> Path:
    """Synthesize a core-format sample file with ``n_records`` records."""
    with RecordFileWriter(path, CORE_CODEC, event, period=1000) as w:
        for i in range(n_records):
            w.write(
                RawSample(
                    pc=0x1000 + 8 * (i % 512), event_name=event,
                    task_id=1, kernel_mode=False, cycle=i, epoch=0,
                )
            )
    return path


def replicate_sample_files(
    src_dir: Path, dst_dir: Path, min_records: int
) -> None:
    """Write every sample file of ``src_dir`` into ``dst_dir`` (which may
    be ``src_dir``) with its records repeated, in order, until it holds
    at least ``min_records``: one ``pack_many``, then one
    ``write_packed`` per replica."""
    dst_dir.mkdir(parents=True, exist_ok=True)
    for path in sorted(src_dir.glob("*.samples")):
        with RecordFileReader(path) as reader:
            records = list(reader)
            codec, event = reader.codec, reader.event_name
            period = reader.period
        blob = codec.pack_many(
            [r.sample for r in records],
            [r.domain_id for r in records] if codec.has_domain else None,
        )
        replicas = -(-min_records // len(records)) if records else 0
        with RecordFileWriter(dst_dir / path.name, codec, event, period) as w:
            for _ in range(replicas):
                w.write_packed(blob, len(records))


def assert_plans_split_files(source: DirectorySource, workers: int) -> None:
    """The plan has several shards and at least one starts inside a file,
    so the parity checks that follow exercise a real split."""
    shards = plan_shards(source.paths(), workers)
    assert len(shards) >= 2
    assert any(c.start_record > 0 for shard in shards for c in shard)


class TestPlanShards:
    def plan(self, tmp_path, counts, workers):
        paths = [
            write_sample_file(tmp_path / f"{i:02d}.samples", n)
            for i, n in enumerate(counts)
        ]
        return paths, plan_shards(paths, workers)

    def test_covers_stream_exactly_once_in_order(self, tmp_path):
        counts = [100, 10_000, 1, 5000]
        paths, shards = self.plan(tmp_path, counts, 4)
        # Flattening the shards in index order must reproduce the record
        # stream: every file's records, in file order, each exactly once.
        flat = [c for shard in shards for c in shard]
        expected_order = [str(p) for p in paths]
        seen: dict[str, int] = {str(p): 0 for p in paths}
        file_cursor = 0
        for chunk in flat:
            # Chunks advance through files in sorted-path order.
            while expected_order[file_cursor] != chunk.path:
                file_cursor += 1
            assert chunk.start_record == seen[chunk.path]
            assert chunk.n_records > 0
            seen[chunk.path] += chunk.n_records
        assert seen == {str(p): n for p, n in zip(paths, counts)}

    def test_intra_file_splits_are_aligned(self, tmp_path):
        _, shards = self.plan(tmp_path, [20_000], 3)
        assert len(shards) > 1
        for shard in shards:
            for chunk in shard:
                assert chunk.start_record % SPLIT_ALIGN_RECORDS == 0

    def test_no_empty_shards_when_workers_exceed_records(self, tmp_path):
        _, shards = self.plan(tmp_path, [3], 8)
        assert all(shard for shard in shards)
        total = sum(c.n_records for shard in shards for c in shard)
        assert total == 3

    def test_empty_directory_plans_no_shards(self, tmp_path):
        _, shards = self.plan(tmp_path, [0, 0], 2)
        assert shards == []

    def test_rejects_non_positive_worker_count(self, tmp_path):
        with pytest.raises(ProfilerError):
            plan_shards([], 0)

    def test_shard_chunk_paths_are_strings(self, tmp_path):
        # Chunks cross the worker pickle boundary; Path objects would
        # pickle fine but cost more — the plan normalizes to str.
        _, shards = self.plan(tmp_path, [10], 1)
        assert all(
            isinstance(c.path, str) for shard in shards for c in shard
        )


class TestParallelGoldenParity:
    """``workers=N`` output must match the sequential golden fixtures."""

    @pytest.fixture(scope="class")
    def run(self):
        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.1, seed=7
        )

    def render(self, run, workers):
        vr = run.viprof_report(workers=workers)
        s = vr.jit_stats
        text = vr.report.format_table(limit=15) + "\n"
        text += (
            f"{s.jit_samples} JIT samples, "
            f"{100 * s.resolution_rate:.1f}% resolved\n"
        )
        return text, vr.stage_stats

    @pytest.mark.parametrize("workers", [2, 4])
    def test_matches_golden_bytes(self, run, workers):
        text, _ = self.render(run, workers)
        assert text == (GOLDEN / "report_fop.txt").read_text()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_statistics_match_sequential(self, run, workers):
        _, seq = self.render(run, 1)
        _, par = self.render(run, workers)
        # Stage counters and detail merge exactly; cache hit/miss counts
        # legitimately differ (each worker warms its own cache).
        assert par["stages"] == seq["stages"]
        assert par["total_samples"] == seq["total_samples"]

    def test_opreport_parallel_matches_sequential(self, run):
        seq = run.oprofile_report(workers=1)
        par = run.oprofile_report(workers=2)
        assert par.format_table() == seq.format_table()
        assert par.totals == seq.totals

    def test_excess_workers_still_exact(self, run):
        text, _ = self.render(run, 32)
        assert text == (GOLDEN / "report_fop.txt").read_text()


class TestResolveWorkers:
    def test_auto_is_bounded_by_cores_and_cap(self):
        import os

        got = resolve_workers("auto")
        cores = os.cpu_count() or 1
        if cores < 2:
            assert got == 1
        else:
            assert got == min(cores, MAX_AUTO_WORKERS)

    def test_integers_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    @pytest.mark.parametrize("bad", [True, 1.5, "four", None, 0, -2])
    def test_rejects_non_counts(self, bad):
        with pytest.raises(ProfilerError):
            resolve_workers(bad)


class TestShardResult:
    """A worker hands back its chain's counter deltas and its aggregate
    through the pool; folding them into the parent (``absorb_stats``,
    then ``merge``) must reproduce the worker's result exactly."""

    def resolve_shard(self, tmp_path):
        """Resolve one 2,000-record shard through the worker entry point
        and through a local chain copy; the worker's result crosses a
        pickle round trip, as it does through the pool."""
        import pickle

        from repro.pipeline import ResolverChain
        from repro.pipeline.parallel import (
            _resolve_shard_worker,
            consume_chunks,
        )
        from repro.profiling.report import StreamingAggregator

        path = write_sample_file(tmp_path / "s.samples", 2000)
        chunks = [ShardChunk(str(path), 0, 2000)]
        parent = ResolverChain([])
        result = pickle.loads(pickle.dumps(_resolve_shard_worker(
            (pickle.dumps(parent), chunks, ("EV",))
        )))
        local = pickle.loads(pickle.dumps(parent))
        local.reset_stats()
        agg = StreamingAggregator(("EV",))
        consume_chunks(chunks, local, agg)
        return parent, result, local, agg

    def test_worker_result_round_trips(self, tmp_path):
        from repro.profiling.report import StreamingAggregator

        parent, (stats, part), local, agg = self.resolve_shard(tmp_path)
        merged = StreamingAggregator(("EV",))
        parent.absorb_stats(stats)
        merged.merge(part)
        assert parent.stats_dict() == local.stats_dict()
        assert merged.samples_seen == agg.samples_seen == 2000
        assert (
            merged.report().format_table() == agg.report().format_table()
        )

    def test_absorb_rejects_mismatched_chain_shape(self, tmp_path):
        from repro.pipeline import ResolverChain
        from repro.pipeline.stages import JitEpochStage
        from repro.viprof.codemap import CodeMapIndex

        _, (stats, _), _, _ = self.resolve_shard(tmp_path)
        map_dir = tmp_path / "maps"
        map_dir.mkdir()
        other = ResolverChain(
            [JitEpochStage(CodeMapIndex.load_dir(map_dir), [])]
        )
        with pytest.raises(ProfilerError, match="diverged"):
            other.absorb_stats(stats)


@pytest.fixture(scope="module")
def replicated(tmp_path_factory):
    """The golden fop run's sample files (13 + 2 records), each
    replicated past :data:`MULTI_SHARD_RECORDS`, and a function that
    resolves them with a fresh post-processor: ``workers -> (report,
    chain)``."""
    root = tmp_path_factory.mktemp("multi-shard")
    run = viprof_profile(
        by_name("fop"), period=90_000, time_scale=0.1, seed=7,
        session_dir=root / "session",
    )
    sample_dir = root / "samples"
    replicate_sample_files(run.sample_dir, sample_dir, MULTI_SHARD_RECORDS)
    seed = run.viprof_report().post

    def resolve(workers):
        post = ViprofReport(
            kernel=seed.kernel,
            sample_dir=sample_dir,
            codemaps=seed.codemaps,
            rvm_map=seed.rvm_map,
            registrations=seed.registrations,
        )
        return post.generate(workers=workers), post.chain

    return sample_dir, resolve


class TestMultiShardParity:
    """``workers=N`` over files large enough to split: the shards start
    inside files, yet the report bytes and the statistics (memo blocks
    aside) equal the sequential pass."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_plan_splits_inside_files(self, replicated, workers):
        sample_dir, _ = replicated
        assert_plans_split_files(DirectorySource(sample_dir), workers)

    @pytest.mark.parametrize("workers", [2, 4, "auto"])
    def test_matches_sequential(self, replicated, workers):
        _, resolve = replicated
        seq, seq_chain = resolve(1)
        par, par_chain = resolve(workers)
        assert par.format_table(limit=10_000) == seq.format_table(
            limit=10_000
        )
        assert without_cache(par_chain.stats_dict()) == without_cache(
            seq_chain.stats_dict()
        )


class TestWorkerCacheStats:
    """Sharded runs must report merged cache statistics — in particular a
    non-zero size (the old transport dropped worker cache sizes)."""

    def test_parallel_cache_size_is_reported(self, replicated):
        _, resolve = replicated
        seq = resolve(1)[1].stats_dict()["cache"]
        for workers in (2, 4):
            par = resolve(workers)[1].stats_dict()["cache"]
            # Max-merge policy: worker caches hold disjoint-shard working
            # sets that overlap on hot keys, so the merged size is the
            # largest worker cache — positive, never above the sequential
            # distinct-key count.
            assert 0 < par["size"] <= seq["size"]
            assert par["hits"] + par["misses"] == seq["hits"] + seq["misses"]
            # Each worker starts with an empty memo and misses its own
            # first sight of a key, so the summed misses grow.
            assert par["misses"] > seq["misses"]


class TestParallelGuards:
    def test_dead_worker_raises(self, tmp_path, monkeypatch):
        """A worker process that dies mid-shard breaks the pool: the run
        raises instead of waiting for a result that never comes."""
        import multiprocessing
        import os
        from concurrent.futures.process import BrokenProcessPool

        from repro.pipeline import ResolverChain, parallel
        from repro.pipeline.aggregate import run_pipeline

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched loop reaches workers only by fork")
        for i in range(2):
            write_sample_file(tmp_path / f"{i:02d}.samples", 10)
        source = DirectorySource(tmp_path)
        assert len(plan_shards(source.paths(), 2)) >= 2
        parent_pid = os.getpid()
        consume = parallel.consume_chunks

        def die_in_worker(chunks, chain, agg):
            if os.getpid() != parent_pid:
                os._exit(3)
            consume(chunks, chain, agg)

        monkeypatch.setattr(parallel, "consume_chunks", die_in_worker)
        with pytest.raises(BrokenProcessPool):
            run_pipeline(source, ResolverChain([]), workers=2)

    def test_rejects_in_memory_sources(self):
        from repro.pipeline import ResolverChain

        with pytest.raises(ProfilerError, match="directory-backed"):
            run_parallel_pipeline(
                iter([]), ResolverChain([]), events=None, workers=2
            )

    def test_pid_filter_is_sequential_only(self):
        run = viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.1, seed=7
        )
        from repro.oprofile.opreport import OpReport

        rep = OpReport(run.kernel, run.sample_dir)
        with pytest.raises(ProfilerError, match="pid"):
            rep.generate(pid=1, workers=2)

    def test_consume_chunks_rejects_bad_range(self, tmp_path):
        from repro.errors import SampleFormatError
        from repro.pipeline import ResolverChain
        from repro.pipeline.parallel import consume_chunks
        from repro.profiling.report import StreamingAggregator

        path = write_sample_file(tmp_path / "x.samples", 10)
        chain = ResolverChain([])
        with pytest.raises(SampleFormatError, match="shard"):
            consume_chunks(
                [ShardChunk(str(path), 5, 20)],
                chain,
                StreamingAggregator(),
            )

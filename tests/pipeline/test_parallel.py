"""Sharded multi-process resolution: shard planning and output parity.

The contract under test (see :mod:`repro.pipeline.parallel`): sharding is
a pure performance feature — ``workers=N`` must produce byte-identical
reports *and* identical resolution statistics to the sequential pass, and
a shard plan must cover the directory's record stream exactly once, in
order, at aligned split points.
"""

from collections import Counter
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
from tests.pipeline.oracle import oracle_report

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


def replicated_session(root: Path, period: int, time_scale: float):
    """A seed-7 fop run's sample files, each replicated past
    :data:`MULTI_SHARD_RECORDS`, and a function that builds a fresh
    post-processor over them: VIProf's by default, stock opreport's with
    ``stock=True``."""
    from repro.oprofile.opreport import OpReport

    run = viprof_profile(
        by_name("fop"), period=period, time_scale=time_scale, seed=7,
        session_dir=root / "session",
    )
    sample_dir = root / "samples"
    replicate_sample_files(run.sample_dir, sample_dir, MULTI_SHARD_RECORDS)
    seed = run.viprof_report().post

    def post_for(stock=False):
        if stock:
            return OpReport(seed.kernel, sample_dir)
        return ViprofReport(
            kernel=seed.kernel,
            sample_dir=sample_dir,
            codemaps=seed.codemaps,
            rvm_map=seed.rvm_map,
            registrations=seed.registrations,
        )

    return sample_dir, post_for


@pytest.fixture(scope="module")
def replicated(tmp_path_factory):
    """The golden fop run's sample files (13 + 2 records), replicated."""
    return replicated_session(
        tmp_path_factory.mktemp("multi-shard"), 90_000, 0.1
    )


@pytest.fixture(scope="module")
def replicated_tasks(tmp_path_factory):
    """A fop run at period 20,000 and scale 0.3, replicated: its samples
    come from three user tasks, and its kernel-mode samples from one."""
    return replicated_session(
        tmp_path_factory.mktemp("multi-task"), 20_000, 0.3
    )


def resolve(post, workers):
    """``(report, chain)`` of one ``generate(workers=...)`` pass."""
    return post.generate(workers=workers), post.chain


def assert_same_report(par, par_chain, seq, seq_chain) -> None:
    """Table bytes, totals, row insertion order (the sort tie-break) and
    statistics are the sequential pass's."""
    assert par.format_table(limit=10_000) == seq.format_table(limit=10_000)
    assert par.totals == seq.totals
    assert [(r.image, r.symbol) for r in par.rows] == [
        (r.image, r.symbol) for r in seq.rows
    ]
    assert par_chain.stats_dict() == seq_chain.stats_dict()


class TestMultiShardParity:
    """``workers=N`` over files large enough to split: the shards start
    inside files, yet the report bytes and the statistics equal the
    sequential pass."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_plan_splits_inside_files(self, replicated, workers):
        sample_dir, _ = replicated
        assert_plans_split_files(DirectorySource(sample_dir), workers)

    @pytest.mark.parametrize("workers", [2, 4, "auto"])
    def test_matches_sequential(self, replicated, workers):
        _, post_for = replicated
        assert_same_report(
            *resolve(post_for(), workers), *resolve(post_for(), 1)
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_opreport_parallel_matches_sequential(self, replicated, workers):
        sample_dir, post_for = replicated
        assert_plans_split_files(DirectorySource(sample_dir), workers)
        assert_same_report(
            *resolve(post_for(stock=True), workers),
            *resolve(post_for(stock=True), 1),
        )

    def test_excess_workers_still_exact(self, replicated):
        # Aligned splits leave fewer shards than the 32 workers asked for.
        sample_dir, post_for = replicated
        source = DirectorySource(sample_dir)
        assert_plans_split_files(source, 32)
        assert len(plan_shards(source.paths(), 32)) < 32
        assert_same_report(
            *resolve(post_for(), 32), *resolve(post_for(), 1)
        )

    def test_warm_workers_match_sequential_bytes_and_stats(self, replicated):
        # A chain that has resolved one pass ships its counters to the
        # workers, which zero their copies: a sharded re-run reproduces
        # the sequential bytes and adds exactly one pass's counts.
        sample_dir, post_for = replicated
        assert_plans_split_files(DirectorySource(sample_dir), 2)
        post = post_for()
        seq = post.generate(workers=1)
        first = post.chain.stats_dict()
        warm = post.generate(workers=2)
        second = post.chain.stats_dict()
        assert warm.format_table(limit=10_000) == seq.format_table(
            limit=10_000
        )
        assert warm.totals == seq.totals
        assert second["total_samples"] == 2 * first["total_samples"]
        for a, b in zip(first["stages"], second["stages"]):
            assert (b["hits"], b["misses"]) == (2 * a["hits"], 2 * a["misses"])


    def test_pid_filter_parity(self, replicated_tasks):
        # The pid filter masks each decode chunk, in every worker: one
        # task's samples plus every kernel-mode one (here all another
        # task's), at workers 1 and 2, against the oracle over the
        # filtered per-sample stream.
        sample_dir, post_for = replicated_tasks
        source = DirectorySource(sample_dir)
        assert_plans_split_files(source, 2)
        user_tasks = Counter(
            ps.raw.task_id for ps in source if not ps.raw.kernel_mode
        )
        _, (pid, _) = user_tasks.most_common(2)
        kept = [
            ps for ps in source if ps.raw.task_id == pid or ps.raw.kernel_mode
        ]
        assert any(ps.raw.kernel_mode and ps.raw.task_id != pid for ps in kept)
        post = post_for()
        reference, ref_stats = oracle_report(
            post.chain, kept, events=post.event_names()
        )
        for workers in (1, 2):
            post = post_for()
            report = post.generate(pid=pid, workers=workers)
            assert report.format_table(limit=10_000) == (
                reference.format_table(limit=10_000)
            )
            assert report.totals == reference.totals
            assert [(r.image, r.symbol) for r in report.rows] == [
                (r.image, r.symbol) for r in reference.rows
            ]
            assert post.chain.stats_dict() == ref_stats
            assert sum(report.totals.values()) == len(kept)


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

        def die_in_worker(chunks, chain, agg, pid=None):
            if os.getpid() != parent_pid:
                os._exit(3)
            consume(chunks, chain, agg, pid)

        monkeypatch.setattr(parallel, "consume_chunks", die_in_worker)
        with pytest.raises(BrokenProcessPool):
            run_pipeline(source, ResolverChain([]), workers=2)

    def test_rejects_in_memory_sources(self):
        from repro.pipeline import ResolverChain

        with pytest.raises(ProfilerError, match="directory-backed"):
            run_parallel_pipeline(
                iter([]), ResolverChain([]), events=None, workers=2
            )

    def test_pid_filter_needs_directory_source(self):
        from repro.pipeline import ResolverChain, run_pipeline

        with pytest.raises(ProfilerError, match="pid filter"):
            run_pipeline(iter([]), ResolverChain([]), pid=1)

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

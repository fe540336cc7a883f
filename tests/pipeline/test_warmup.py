"""Shard workers of a warm parent chain.

A chain that has already resolved a pass holds a full memo.  Its shard
workers receive a pickled copy without the memo's entries (and reset
every counter), so a sharded re-run over a warm chain must still produce
the sequential pass's bytes and add exactly one stream's worth of
counts to the parent.
"""

import pytest

from repro.oprofile.opreport import OpReport
from repro.system.api import viprof_profile
from repro.workloads import by_name


class TestWarmParallelParity:
    """End-to-end over a genuinely multi-shard source: enough records
    that ``plan_shards`` splits (single-shard plans take the sequential
    path, which never forks)."""

    @pytest.fixture(scope="class")
    def run(self):
        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.1, seed=7
        )

    @pytest.fixture(scope="class")
    def sample_dir(self, run, tmp_path_factory):
        # Two files, 12k records each, 512 distinct PCs: far past the
        # split alignment, with heavy key reuse.
        from tests.pipeline.test_parallel import write_sample_file

        d = tmp_path_factory.mktemp("warm-samples")
        write_sample_file(d / "a.samples", 12_000, event="EV")
        write_sample_file(d / "b.samples", 12_000, event="EV")
        return d

    def test_plan_actually_shards(self, run, sample_dir):
        from repro.pipeline.parallel import plan_shards

        rep = OpReport(run.kernel, sample_dir)
        assert len(plan_shards(rep.source.paths(), 2)) == 2

    def test_warm_workers_match_sequential_bytes_and_stats(
        self, run, sample_dir
    ):
        rep = OpReport(run.kernel, sample_dir)
        seq = rep.generate(workers=1)
        first = rep.chain.stats_dict()
        warm = rep.generate(workers=2)
        second = rep.chain.stats_dict()
        assert warm.format_table() == seq.format_table()
        assert warm.totals == seq.totals
        for a, b in zip(first["stages"], second["stages"]):
            assert (b["hits"], b["misses"]) == (2 * a["hits"], 2 * a["misses"])
        # Workers start with empty memos: each misses every key once.
        distinct = first["cache"]["misses"]
        assert second["cache"]["misses"] == distinct + 2 * distinct

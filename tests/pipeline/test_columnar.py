"""Grouped, bucketed resolution parity.

Production resolution counts each sample file range into one
``{key: count}`` table across its decode chunks, resolves the table
once (early, when it outgrows its bound) and walks its distinct keys
bucket by bucket (:meth:`repro.pipeline.ResolverChain.resolve_groups`).
It must produce byte-identical reports *and* identical resolution
statistics to the per-sample oracle (``tests/pipeline/oracle.py``), in
strict and degraded (quarantined-epoch) mode.  These tests pin that
contract against the golden fixtures, against randomized
shuffled/duplicated sample streams, against a multi-chunk stream whose
keys recur across decode chunks (with the table whole and flushed, and
one walk per distinct key), and against a salvaged world with a
quarantine barrier.
"""

import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProfilerError
from repro.pipeline.parallel import ShardChunk, consume_chunks
from repro.pipeline.resolver import ResolverChain
from repro.pipeline.source import DirectorySource
from repro.pipeline.stages import JitEpochStage
from repro.profiling.model import RawSample
from repro.profiling.record_codec import CORE_CODEC, RecordFileWriter
from repro.profiling.report import StreamingAggregator
from repro.system.api import viprof_profile
from repro.viprof.codemap import CodeMapIndex, CodeMapRecord, CodeMapWriter
from repro.viprof.runtime_profiler import VmRegistration
from repro.workloads import by_name
from tests.pipeline.oracle import oracle_report

GOLDEN = Path(__file__).resolve().parents[1] / "fixtures" / "golden"


class TestGoldenColumnarParity:
    """Production output vs the golden fixtures and the oracle."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.1, seed=7,
            session_dir=tmp_path_factory.mktemp("golden-columnar"),
        )

    def render(self, run):
        vr = run.viprof_report()
        s = vr.jit_stats
        text = vr.report.format_table(limit=15) + "\n"
        text += (
            f"{s.jit_samples} JIT samples, "
            f"{100 * s.resolution_rate:.1f}% resolved\n"
        )
        return text, vr.stage_stats

    def oracle(self, run):
        post = run.viprof_report().post
        return oracle_report(
            post._build_chain(), post.source, events=post.event_names()
        )

    def test_matches_golden_bytes(self, run):
        text, _ = self.render(run)
        assert text == (GOLDEN / "report_fop.txt").read_text()

    def test_stats_match_oracle(self, run):
        _, stats = self.render(run)
        _, reference = self.oracle(run)
        assert stats == reference

    def test_opreport_columnar_matches_scalar(self, run):
        from repro.oprofile.opreport import OpReport

        report = run.oprofile_report()
        post = OpReport(run.kernel, run.sample_dir)
        reference, _ = oracle_report(
            post.chain, post.source, events=post.event_names()
        )
        assert report.format_table() == reference.format_table()
        assert report.totals == reference.totals


# ----------------------------------------------------------------------
# Synthetic epoch world: a small code-map history with a recycled
# address, used for the randomized and quarantine parity tests below.
# ----------------------------------------------------------------------

HEAP_LO = 0x6000_0000
HEAP_HI = 0x7000_0000
BODY = 0x100
EPOCHS = 6
TASK = 9
OTHER_TASK = 11  # not registered: falls through to the fallback stage


def _write_world(map_dir: Path) -> None:
    """Epoch e compiles ``m{e}`` at HEAP_LO + e*0x1000; epoch 4 also
    recycles m0's address for ``r4`` (the backward walk's hard case)."""
    writer = CodeMapWriter(map_dir)
    for epoch in range(EPOCHS):
        records = [
            CodeMapRecord(
                address=HEAP_LO + epoch * 0x1000, size=BODY,
                tier="base", name=f"m{epoch}",
            )
        ]
        if epoch == 4:
            records.append(
                CodeMapRecord(
                    address=HEAP_LO, size=BODY, tier="base", name="r4"
                )
            )
        writer.write(epoch, records)


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    map_dir = tmp_path_factory.mktemp("columnar-world")
    _write_world(map_dir)
    return map_dir


def _make_chain(
    map_dir: Path, strict: bool = True, quarantined=frozenset()
) -> ResolverChain:
    index = CodeMapIndex.load_dir(map_dir, quarantined=quarantined)
    stage = JitEpochStage(
        index,
        [VmRegistration(TASK, HEAP_LO, HEAP_HI)],
        strict=strict,
    )
    return ResolverChain([stage])


def _run_samples(samples, chain, oracle=False):
    """Write the samples to a record file and resolve them through the
    real chunked loop, or through the oracle; returns (report, stats)."""
    with tempfile.TemporaryDirectory(prefix="columnar-test-") as tmp:
        path = Path(tmp) / "ev.samples"
        with RecordFileWriter(path, CORE_CODEC, "EV", period=1000) as w:
            for s in samples:
                w.write(s)
        if oracle:
            return oracle_report(chain, DirectorySource(tmp))
        agg = StreamingAggregator()
        consume_chunks([ShardChunk(str(path), 0, len(samples))], chain, agg)
    return agg.report(), chain.stats_dict()


def _assert_parity(samples, chain):
    report, stats = _run_samples(samples, chain)
    reference, ref_stats = _run_samples(samples, chain, oracle=True)
    assert report.format_table() == reference.format_table()
    assert report.totals == reference.totals
    # Row insertion order is the report's sort tie-break.
    assert [(r.image, r.symbol) for r in report.rows] == [
        (r.image, r.symbol) for r in reference.rows
    ]
    assert stats == ref_stats
    return stats


class TestRandomizedParity:
    """Shuffled, duplicated PCs across epoch boundaries resolve to the
    same bytes and the same counters as the oracle."""

    @given(
        specs=st.lists(
            st.tuples(
                st.integers(0, EPOCHS - 1),     # body index
                st.integers(0, BODY - 1),       # offset inside the body
                st.integers(0, EPOCHS - 1),     # sample epoch
                st.sampled_from([TASK, TASK, TASK, OTHER_TASK]),
                st.integers(1, 4),              # duplicates
            ),
            min_size=1,
            max_size=40,
        ),
        shuffle_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_scalar_columnar_agree(self, world_dir, specs, shuffle_seed):
        samples = []
        for body, offset, epoch, task, dups in specs:
            pc = HEAP_LO + body * 0x1000 + offset
            for _ in range(dups):
                samples.append(
                    RawSample(
                        pc=pc, event_name="EV", task_id=task,
                        kernel_mode=False, cycle=len(samples), epoch=epoch,
                    )
                )
        random.Random(shuffle_seed).shuffle(samples)
        _assert_parity(samples, _make_chain(world_dir))

    def test_recycled_address_attributed_per_epoch(self, world_dir):
        # Deterministic pin of the cross-epoch case: HEAP_LO is m0 before
        # epoch 4 and r4 from epoch 4 on, in the same columnar chunk.
        samples = [
            RawSample(
                pc=HEAP_LO + 1, event_name="EV", task_id=TASK,
                kernel_mode=False, cycle=i, epoch=epoch,
            )
            for i, epoch in enumerate([0, 4, 2, 5, 0, 4])
        ]
        report, _ = _run_samples(samples, _make_chain(world_dir))
        rows = {
            (r.image, r.symbol): r.counts["EV"] for r in report.sorted_rows()
        }
        assert rows[("JIT.App", "m0")] == 3
        assert rows[("JIT.App", "r4")] == 3


#: Decode-chunk size of the record reader; the key-table tests span
#: several chunks.
DECODE_CHUNK = 4096


def _multi_chunk_samples():
    """12,388 samples spanning four decode chunks, drawn from 288 keys
    (bodies × offsets × epochs × tasks) that recur in every chunk.  Body 5
    is only drawn from record 5,000 on, so its ``own``-epoch row
    (``JIT.App m5``) is first seen after the first decode chunk."""
    rng = random.Random(1234)
    pool = [
        (HEAP_LO + body * 0x1000 + off, epoch, task)
        for body in range(EPOCHS)
        for off in (0, 8, 16, 24)
        for epoch in range(EPOCHS)
        for task in (TASK, OTHER_TASK)
    ]
    early = [k for k in pool if k[0] < HEAP_LO + 5 * 0x1000]
    samples = []
    for i in range(3 * DECODE_CHUNK + 100):
        pc, epoch, task = rng.choice(early if i < 5000 else pool)
        samples.append(
            RawSample(
                pc=pc, event_name="EV", task_id=task,
                kernel_mode=False, cycle=i, epoch=epoch,
            )
        )
    return samples


def _distinct_keys(samples):
    return {(s.pc, s.epoch, False, s.task_id, None) for s in samples}


class TestKeyTable:
    """One ``{key: count}`` table per chunk range: every distinct key is
    resolved once per range (once per flush when the table outgrows its
    bound), not once per decode chunk, and the output still equals the
    per-sample oracle's."""

    @pytest.fixture(scope="class")
    def samples(self):
        samples = _multi_chunk_samples()
        first_m5 = next(
            i for i, s in enumerate(samples)
            if s.pc >= HEAP_LO + 5 * 0x1000 and s.epoch == 5
            and s.task_id == TASK
        )
        assert first_m5 >= DECODE_CHUNK
        assert len(_distinct_keys(samples)) == 288
        return samples

    def test_multi_chunk_parity(self, world_dir, samples):
        _assert_parity(samples, _make_chain(world_dir))

    def test_flushed_table_parity(self, world_dir, samples, monkeypatch):
        # A five-key bound flushes the table after every decode chunk.
        from repro.pipeline import parallel

        monkeypatch.setattr(parallel, "MAX_TABLE_KEYS", 5)
        calls = []
        original = ResolverChain.resolve_groups

        def spy(chain, groups):
            calls.append(len(groups))
            return original(chain, groups)

        monkeypatch.setattr(ResolverChain, "resolve_groups", spy)
        _assert_parity(samples, _make_chain(world_dir))
        assert len(calls) == -(-len(samples) // DECODE_CHUNK)

    def test_each_distinct_key_walked_once(
        self, world_dir, samples, monkeypatch
    ):
        walked: Counter = Counter()
        original = ResolverChain.resolve_key_run

        def spy(chain, keys, counts):
            walked.update(keys)
            return original(chain, keys, counts)

        monkeypatch.setattr(ResolverChain, "resolve_key_run", spy)
        _run_samples(samples, _make_chain(world_dir))
        assert set(walked) == _distinct_keys(samples)
        assert set(walked.values()) == {1}


class TestQuarantinedParity:
    """Degraded (strict=False) runs must account blocked samples exactly
    like the oracle; strict runs must refuse."""

    @pytest.fixture(scope="class")
    def guarded_dir(self, tmp_path_factory):
        # The salvaged view: epoch 3's map lost, its epoch fenced off.
        full = tmp_path_factory.mktemp("columnar-q-full")
        _write_world(full)
        guarded = tmp_path_factory.mktemp("columnar-q-guarded")
        for p in sorted(full.iterdir()):
            if not p.name.endswith("00003"):
                shutil.copy(p, guarded / p.name)
        return guarded

    def blocked_samples(self):
        # Epoch-3 samples (their own map is quarantined: always blocked)
        # mixed with resolvable earlier/later samples and duplicates.
        spec = [(3, 0), (0, 0), (3, 0), (5, 5), (3, 8), (4, 0), (3, 0)]
        return [
            RawSample(
                pc=HEAP_LO + off, event_name="EV", task_id=TASK,
                kernel_mode=False, cycle=i, epoch=epoch,
            )
            for i, (epoch, off) in enumerate(spec)
        ]

    def test_degraded_accounting_matches_scalar(self, guarded_dir):
        chain = _make_chain(
            guarded_dir, strict=False, quarantined=frozenset({3})
        )
        col_stats = _assert_parity(self.blocked_samples(), chain)
        jit = next(
            s for s in col_stats["stages"] if s["stage"] == "jit-epoch"
        )
        assert jit["detail"]["blocked_at_quarantine"] == 4
        assert jit["degraded"] == {"blocked_at_quarantine": 4}
        assert col_stats["degraded"] is True

    @pytest.mark.parametrize("oracle", [False, True])
    def test_strict_mode_refuses_blocked_walks(self, guarded_dir, oracle):
        chain = _make_chain(
            guarded_dir, strict=True, quarantined=frozenset({3})
        )
        with pytest.raises(ProfilerError, match="quarantined"):
            _run_samples(self.blocked_samples(), chain, oracle=oracle)

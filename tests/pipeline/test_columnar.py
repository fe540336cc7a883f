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
quarantine barrier.  Each decode chunk collapses to its distinct keys in
numpy before it reaches the table; the tables handed to
``resolve_groups`` are pinned against the per-record dict loop that did
that fold one record at a time.
"""

import random
import shutil
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProfilerError
from repro.pipeline import parallel
from repro.pipeline.parallel import ShardChunk, consume_chunks
from repro.pipeline.resolver import Resolution, ResolverChain
from repro.pipeline.source import DirectorySource
from repro.pipeline.stages import JitEpochStage
from repro.profiling import record_codec
from repro.profiling.model import RawSample
from repro.profiling.record_codec import (
    CORE_CODEC,
    DOMAIN_CODEC,
    RecordFileReader,
    RecordFileWriter,
    codec_for_magic,
    probe_sample_file,
)
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


#: Decode-chunk size the key-table tests patch into the record reader,
#: so that their 12,388-sample stream spans four decode chunks.
DECODE_CHUNK = 4096


@pytest.fixture
def decode_chunk(monkeypatch):
    monkeypatch.setattr(record_codec, "_CHUNK_RECORDS", DECODE_CHUNK)


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


@pytest.mark.usefixtures("decode_chunk")
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


# ----------------------------------------------------------------------
# The tables consume_chunks resolves, against the per-record dict loop.
# ----------------------------------------------------------------------


def _reference_tables(path, ranges, decode_chunk, max_keys):
    """The tables the per-record dict loop hands to ``resolve_groups``:
    per range, one dict operation per record on its ``sample_key``
    layout, and the ``max_keys`` flush checked after each decode chunk
    of ``decode_chunk`` records."""
    probe = probe_sample_file(path)
    iter_unpack = codec_for_magic(probe.magic).record_struct.iter_unpack
    size = probe.record_size
    body = Path(path).read_bytes()[probe.data_start:]
    tables = []
    for r in ranges:
        groups: dict = {}
        end = r.start_record + r.n_records
        for lo in range(r.start_record, end, decode_chunk):
            hi = min(lo + decode_chunk, end)
            for f in iter_unpack(body[lo * size:hi * size]):
                key = (f[0], f[4], f[2], f[1], f[5] if len(f) > 5 else None)
                groups[key] = groups.get(key, 0) + 1
            if len(groups) >= max_keys:
                tables.append(list(groups.items()))
                groups = {}
        if groups:
            tables.append(list(groups.items()))
    return tables


class _TableRecorder:
    """Stands in for a chain: records every table handed to
    ``resolve_groups``, in order, and resolves each key to one row."""

    def __init__(self):
        self.tables = []

    def resolve_groups(self, groups):
        self.tables.append(list(groups.items()))
        return dict.fromkeys(groups, Resolution("img", "sym", 0, (0, None)))


def _consumed_tables(ranges, decode_chunk, max_keys):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(record_codec, "_CHUNK_RECORDS", decode_chunk)
        mp.setattr(parallel, "MAX_TABLE_KEYS", max_keys)
        recorder = _TableRecorder()
        consume_chunks(ranges, recorder, StreamingAggregator())
    return recorder.tables


def _write_records(path, codec, keys):
    """Write one record per ``(pc, task_id, kernel_mode, epoch,
    domain_id)`` of ``keys``, the kernel-mode byte as given and the
    cycle counting up; core records drop the domain id."""
    width = 6 if codec.has_domain else 5
    records = [
        (pc, task, kmode, cycle, epoch, domain)
        for cycle, (pc, task, kmode, epoch, domain) in enumerate(keys)
    ]
    with RecordFileWriter(path, codec, "EV", period=1000) as w:
        w.write_packed(
            b"".join(codec.record_struct.pack(*f[:width]) for f in records),
            len(records),
        )
    return str(path)


#: Key fields over their full on-disk ranges: pc, task_id, the
#: kernel-mode byte, epoch, domain_id.
KEY_FIELDS = (
    st.integers(0, (1 << 64) - 1),
    st.integers(0, (1 << 32) - 1),
    st.integers(0, 255),
    st.integers(-(1 << 63), (1 << 63) - 1),
    st.integers(0, 65_535),
)


@st.composite
def key_pools(draw):
    """Up to eight keys whose fields each take one of two drawn values,
    so that keys often differ in a single field."""
    values = [draw(st.lists(f, min_size=1, max_size=2)) for f in KEY_FIELDS]
    key = st.tuples(*(st.sampled_from(v) for v in values))
    return draw(st.lists(key, min_size=1, max_size=8))


class TestChunkTables:
    """``consume_chunks`` hands ``resolve_groups`` exactly the tables of
    the per-record dict loop: the same keys, counts and insertion order,
    for every range, decode-chunk size and flush bound."""

    @given(
        codec=st.sampled_from([CORE_CODEC, DOMAIN_CODEC]),
        pool=key_pools(),
        picks=st.lists(st.integers(0, 7), max_size=120),
        cuts=st.lists(st.integers(0, 120), max_size=3),
        decode_chunk=st.integers(1, 16),
        max_keys=st.sampled_from([1, 3, 6, 1 << 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_match_per_record_loop(
        self, tmp_path_factory, codec, pool, picks, cuts, decode_chunk,
        max_keys,
    ):
        keys = [pool[i % len(pool)] for i in picks]
        path = _write_records(
            tmp_path_factory.mktemp("tables") / "ev.samples", codec, keys
        )
        bounds = sorted([0, len(keys), *(min(c, len(keys)) for c in cuts)])
        ranges = [
            ShardChunk(path, lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])
        ]
        assert _consumed_tables(ranges, decode_chunk, max_keys) == (
            _reference_tables(path, ranges, decode_chunk, max_keys)
        )

    @pytest.mark.parametrize(
        "codec", [CORE_CODEC, DOMAIN_CODEC], ids=["vprs", "xprs"]
    )
    def test_recurring_late_and_empty_ranges(self, tmp_path, codec):
        # Decode chunks of four records.  In the first range a and b recur
        # in every chunk and c is first seen in the second chunk; the
        # middle range is empty; in the last, d is first seen in its
        # second chunk.
        top = (1 << 64) - 1
        a = (top, (1 << 32) - 1, 255, -(1 << 63), 65_535)
        b = (0, 0, 0, (1 << 63) - 1, 0)
        c = (top, (1 << 32) - 1, 255, -1, 65_535)
        d = (top - 1, 7, 1, -1, 3)
        keys = [a, b, a, a, b, c, a, c, a, b, c, a, a, b, c, d]
        path = _write_records(tmp_path / "ev.samples", codec, keys)
        ranges = [
            ShardChunk(path, 0, 10),
            ShardChunk(path, 10, 0),
            ShardChunk(path, 10, 6),
        ]

        def key(pc, task, kmode, epoch, domain):
            return (pc, epoch, kmode, task, domain if codec.has_domain else None)

        tables = _consumed_tables(ranges, decode_chunk=4, max_keys=1 << 16)
        assert tables == [
            [(key(*a), 5), (key(*b), 3), (key(*c), 2)],
            [(key(*c), 2), (key(*a), 2), (key(*b), 1), (key(*d), 1)],
        ]
        assert tables == _reference_tables(path, ranges, 4, 1 << 16)
        assert {type(v) for t in tables for k, _ in t for v in k} <= {
            int, type(None)
        }

    def test_packed_fields_stay_apart(self, tmp_path):
        # Keys that differ only in the bits where task_id, kernel_mode and
        # domain_id meet in the packed u64: any overlap merges two.
        fields = [
            (0, 0, 0), (1 << 31, 0, 0), ((1 << 32) - 1, 0, 0),
            (0, 1, 0), (0, 128, 0), (0, 255, 0),
            (0, 0, 1), (0, 0, 1 << 15), (0, 0, 65_535),
        ]
        keys = [(7, task, kmode, -1, domain) for task, kmode, domain in fields]
        path = _write_records(tmp_path / "ev.samples", DOMAIN_CODEC, keys * 2)
        ranges = [ShardChunk(path, 0, 2 * len(keys))]
        assert _consumed_tables(ranges, decode_chunk=32, max_keys=1 << 16) == [
            [((7, -1, kmode, task, domain), 2) for task, kmode, domain in fields]
        ]


def _boundary_keys(codec, total_bits):
    """Six records over three keys whose column spans, with the 3-bit
    row index, need ``total_bits`` bits: epoch 10 bits (crossing zero),
    kernel mode 8 (bytes 2 to 255), task 4, domain 3 (XPRS only), and
    ``pc`` the rest."""
    key_bits = total_bits - 3 - 10 - 8 - 4 - (3 if codec.has_domain else 0)
    lo = (1 << 63, 5, 2, -(1 << 9), 1)
    hi = ((1 << 63) + (1 << key_bits) - 1, 20, 255, (1 << 9) - 1, 8)
    mid = (1 << 63, 12, 128, 0, 8)
    return [lo, hi, mid, hi, lo, mid]


#: Fixed key lists, as ``(pc, task_id, kernel_mode, epoch, domain_id)``.
FIXED_KEYS = {
    "epoch-crosses-zero": [
        (0x4000, 9, 0, e, 2) for e in (-2, 1, -2, 0, 1, -1, 0, -2)
    ],
    "kernel-mode-bytes": [
        (0x4000 + 8 * (i % 3), 9, b, 3, 2)
        for i, b in enumerate((2, 7, 128, 255, 0, 1, 255, 2, 7, 1))
    ],
    "one-record": [((1 << 64) - 1, (1 << 32) - 1, 255, -(1 << 63), 65_535)],
    "one-key": [(0xC000_1000, 4, 1, 6, 3)] * 50,
}


def _sorted_runs(path):
    """``_sort_keys``' ranked columns for the file's one decode chunk:
    one packed column, or every key column after the lexsort."""
    with RecordFileReader(path) as reader:
        (records,) = reader.iter_field_chunks()
        n_fields = 5 if reader.codec.has_domain else 4
    return parallel._sort_keys(
        [records[f] for f in parallel._KEY_FIELDS[:n_fields]]
    )[1]


@pytest.mark.parametrize(
    "codec", [CORE_CODEC, DOMAIN_CODEC], ids=["vprs", "xprs"]
)
class TestKeyPacking:
    """Fixed cases at the edges of the packed sort key: the tables equal
    the per-record loop's whichever way a decode chunk is sorted."""

    @pytest.mark.parametrize(
        "total_bits, packed", [(64, True), (65, False)],
        ids=["64-bits-packed", "65-bits-lexsort"],
    )
    def test_packing_boundary(self, tmp_path, codec, total_bits, packed):
        keys = _boundary_keys(codec, total_bits)
        path = _write_records(tmp_path / "ev.samples", codec, keys)
        assert (len(_sorted_runs(path)) == 1) is packed
        ranges = [ShardChunk(path, 0, len(keys))]
        tables = _consumed_tables(ranges, 32, 1 << 16)
        assert tables == _reference_tables(path, ranges, 32, 1 << 16)
        assert [n for _, n in tables[0]] == [2, 2, 2]

    @pytest.mark.parametrize("case", sorted(FIXED_KEYS))
    @pytest.mark.parametrize("decode_chunk", [1, 3, 32])
    def test_fixed_cases(self, tmp_path, codec, case, decode_chunk):
        keys = FIXED_KEYS[case]
        path = _write_records(tmp_path / "ev.samples", codec, keys)
        assert len(_sorted_runs(path)) == 1
        ranges = [ShardChunk(path, 0, len(keys))]
        assert _consumed_tables(ranges, decode_chunk, 1 << 16) == (
            _reference_tables(path, ranges, decode_chunk, 1 << 16)
        )


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

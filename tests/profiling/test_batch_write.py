"""Byte-parity properties of the batched write path.

The batching rework is only legal because it is invisible in the output:
``pack_many``/``write_batch``/``write_packed`` must produce exactly the
bytes a per-record ``pack``/``write`` loop produces, for both registered
codecs, any domain-id column, and any epoch tags.  These tests pin that
contract; the engine-level counterpart is
``tests/system/test_golden_session.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SampleFormatError
from repro.profiling.model import RawSample
from repro.profiling.record_codec import (
    CORE_CODEC,
    DOMAIN_CODEC,
    RecordFileReader,
    RecordFileWriter,
)

EVENT = "GLOBAL_POWER_EVENTS"

SAMPLES = st.lists(
    st.builds(
        RawSample,
        pc=st.integers(min_value=0, max_value=(1 << 64) - 1),
        event_name=st.just(EVENT),
        task_id=st.integers(min_value=0, max_value=(1 << 32) - 1),
        kernel_mode=st.booleans(),
        cycle=st.integers(min_value=0, max_value=(1 << 63) - 1),
        epoch=st.integers(min_value=-1, max_value=(1 << 31) - 1),
    ),
    max_size=60,
)

BUFFER_SIZES = st.sampled_from([0, 1, 17, 4096, None])


def sample(pc=0x1000, task=1, kernel_mode=False, cycle=0, epoch=-1):
    return RawSample(
        pc=pc, event_name=EVENT, task_id=task,
        kernel_mode=kernel_mode, cycle=cycle, epoch=epoch,
    )


class TestPackMany:
    @given(samples=SAMPLES)
    @settings(max_examples=60, deadline=None)
    def test_core_matches_joined_pack(self, samples):
        expected = b"".join(CORE_CODEC.pack(s) for s in samples)
        assert CORE_CODEC.pack_many(samples) == expected

    @given(
        samples=SAMPLES,
        domain_seed=st.integers(min_value=0, max_value=(1 << 16) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_domain_matches_joined_pack(self, samples, domain_seed):
        domains = [(domain_seed + i) % (1 << 16) for i in range(len(samples))]
        expected = b"".join(
            DOMAIN_CODEC.pack(s, domain_id=d)
            for s, d in zip(samples, domains)
        )
        assert DOMAIN_CODEC.pack_many(samples, domains) == expected

    def test_accepts_generator(self):
        samples = [sample(pc=i) for i in range(5)]
        assert CORE_CODEC.pack_many(iter(samples)) == CORE_CODEC.pack_many(
            samples
        )

    def test_domain_required(self):
        with pytest.raises(SampleFormatError, match="domain id"):
            DOMAIN_CODEC.pack_many([sample()])

    def test_domain_count_mismatch_rejected(self):
        with pytest.raises(SampleFormatError, match="domain ids"):
            DOMAIN_CODEC.pack_many([sample(), sample()], [1])


class TestWriteBatchParity:
    @given(samples=SAMPLES, buffer_bytes=BUFFER_SIZES)
    @settings(max_examples=40, deadline=None)
    def test_core_batch_matches_per_record(
        self, tmp_path_factory, samples, buffer_bytes
    ):
        tmp = tmp_path_factory.mktemp("bw")
        seq, bat = tmp / "seq.samples", tmp / "bat.samples"
        with RecordFileWriter(seq, CORE_CODEC, EVENT, 1000) as w:
            for s in samples:
                w.write(s)
        with RecordFileWriter(
            bat, CORE_CODEC, EVENT, 1000, buffer_bytes=buffer_bytes
        ) as w:
            assert w.write_batch(samples) == len(samples)
        assert seq.read_bytes() == bat.read_bytes()

    @given(samples=SAMPLES, buffer_bytes=BUFFER_SIZES)
    @settings(max_examples=40, deadline=None)
    def test_domain_batch_matches_per_record(
        self, tmp_path_factory, samples, buffer_bytes
    ):
        domains = [i % 7 for i in range(len(samples))]
        tmp = tmp_path_factory.mktemp("bw")
        seq, bat = tmp / "seq.samples", tmp / "bat.samples"
        with RecordFileWriter(seq, DOMAIN_CODEC, EVENT, 1000) as w:
            for s, d in zip(samples, domains):
                w.write(s, domain_id=d)
        with RecordFileWriter(
            bat, DOMAIN_CODEC, EVENT, 1000, buffer_bytes=buffer_bytes
        ) as w:
            w.write_batch(samples, domains)
        assert seq.read_bytes() == bat.read_bytes()

    @given(samples=SAMPLES)
    @settings(max_examples=30, deadline=None)
    def test_mixed_write_and_batch_roundtrips(self, tmp_path_factory, samples):
        """Interleaving per-record and batched appends preserves order."""
        p = tmp_path_factory.mktemp("bw") / "mix.samples"
        half = len(samples) // 2
        with RecordFileWriter(p, CORE_CODEC, EVENT, 1000) as w:
            for s in samples[:half]:
                w.write(s)
            w.write_batch(samples[half:])
            assert w.samples_written == len(samples)
        with RecordFileReader(p) as r:
            assert [rec.sample for rec in r] == samples

    def test_xeno_writer_batch_parity(self, tmp_path):
        raws = [sample(pc=0x2000 + i, epoch=i) for i in range(25)]
        domains = [i % 3 for i in range(25)]
        seq, bat = tmp_path / "seq.samples", tmp_path / "bat.samples"
        with RecordFileWriter(seq, DOMAIN_CODEC, EVENT, 1000) as w:
            for s, d in zip(raws, domains):
                w.write(s, domain_id=d)
        with RecordFileWriter(bat, DOMAIN_CODEC, EVENT, 1000) as w:
            assert w.write_batch(iter(raws), iter(domains)) == len(raws)
        assert seq.read_bytes() == bat.read_bytes()


class TestWritePacked:
    def test_blob_reuse_matches_repeated_batches(self, tmp_path):
        samples = [sample(pc=0x4000 + i, cycle=i) for i in range(10)]
        blob = CORE_CODEC.pack_many(samples)
        a, b = tmp_path / "a.samples", tmp_path / "b.samples"
        with RecordFileWriter(a, CORE_CODEC, EVENT, 1000) as w:
            for _ in range(3):
                w.write_batch(samples)
        with RecordFileWriter(b, CORE_CODEC, EVENT, 1000) as w:
            for _ in range(3):
                assert w.write_packed(blob, len(samples)) == len(samples)
            assert w.samples_written == 30
        assert a.read_bytes() == b.read_bytes()

    def test_length_mismatch_rejected(self, tmp_path):
        blob = CORE_CODEC.pack_many([sample()])
        with RecordFileWriter(
            tmp_path / "x.samples", CORE_CODEC, EVENT, 1000
        ) as w:
            with pytest.raises(SampleFormatError, match="packed batch"):
                w.write_packed(blob, 2)


class TestBuffering:
    def test_pending_records_invisible_until_flush(self, tmp_path):
        p = tmp_path / "buf.samples"
        w = RecordFileWriter(p, CORE_CODEC, EVENT, 1000)
        w._fh.flush()  # settle the header so sizes below are exact
        header_size = p.stat().st_size
        w.write(sample())
        w._fh.flush()
        assert p.stat().st_size == header_size  # record still pending
        w.flush()
        assert p.stat().st_size == header_size + CORE_CODEC.record_size
        w.close()

    def test_context_exit_flushes(self, tmp_path):
        p = tmp_path / "exit.samples"
        samples = [sample(pc=i + 1) for i in range(9)]
        with RecordFileWriter(p, CORE_CODEC, EVENT, 1000) as w:
            w.write_batch(samples)
        with RecordFileReader(p) as r:
            assert len(r) == len(samples)
            assert [rec.sample for rec in r] == samples

    def test_zero_buffer_spills_every_record(self, tmp_path):
        p = tmp_path / "zero.samples"
        w = RecordFileWriter(p, CORE_CODEC, EVENT, 1000, buffer_bytes=0)
        w._fh.flush()  # settle the header so sizes below are exact
        header_size = p.stat().st_size
        w.write(sample())
        w._fh.flush()  # only the OS-level buffer may lag
        assert p.stat().st_size == header_size + CORE_CODEC.record_size
        w.close()

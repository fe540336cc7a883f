"""Unit tests for the packed sample-file format."""

import pytest

from repro.errors import SampleFormatError
from repro.profiling.model import RawSample
from repro.profiling.samplefile import (
    MAGIC,
    SampleFileReader,
    SampleFileWriter,
)


def sample(pc=0x1000, epoch=-1, cycle=5, kernel=False):
    return RawSample(
        pc=pc, event_name="GLOBAL_POWER_EVENTS", task_id=1000,
        kernel_mode=kernel, cycle=cycle, epoch=epoch,
    )


class TestRoundTrip:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.samples"
        with SampleFileWriter(p, "GLOBAL_POWER_EVENTS", 90_000):
            pass
        r = SampleFileReader(p)
        assert len(r) == 0
        assert r.event_name == "GLOBAL_POWER_EVENTS"
        assert r.period == 90_000

    def test_samples_roundtrip(self, tmp_path):
        p = tmp_path / "s.samples"
        originals = [
            sample(pc=0x6080_1234, epoch=7, cycle=99),
            sample(pc=0xC010_0000, epoch=-1, cycle=100, kernel=True),
            sample(pc=0x0804_8000, epoch=0, cycle=101),
        ]
        with SampleFileWriter(p, "GLOBAL_POWER_EVENTS", 90_000) as w:
            for s in originals:
                w.write(s)
        back = list(SampleFileReader(p))
        assert back == originals

    def test_write_batch(self, tmp_path):
        p = tmp_path / "s.samples"
        with SampleFileWriter(p, "BSQ_CACHE_REFERENCE", 1000) as w:
            n = w.write_batch(iter([sample(), sample()]))
        assert n == 2
        assert len(SampleFileReader(p)) == 2

    def test_write_batch_accepts_any_iterable(self, tmp_path):
        originals = [sample(pc=0x1000 + i) for i in range(8)]
        a, b = tmp_path / "list.samples", tmp_path / "gen.samples"
        with SampleFileWriter(a, "GLOBAL_POWER_EVENTS", 1000) as w:
            assert w.write_batch(originals) == len(originals)
        with SampleFileWriter(b, "GLOBAL_POWER_EVENTS", 1000) as w:
            assert w.write_batch(s for s in originals) == len(originals)
        assert a.read_bytes() == b.read_bytes()
        assert list(SampleFileReader(a)) == originals

    def test_context_exit_flushes_buffered_records(self, tmp_path):
        p = tmp_path / "buffered.samples"
        with SampleFileWriter(p, "GLOBAL_POWER_EVENTS", 1000) as w:
            w.write(sample())
            header_and_nothing = p.stat().st_size
        # The record was buffered (file held only the header inside the
        # block) and the context exit flushed it.
        assert p.stat().st_size > header_and_nothing
        assert len(SampleFileReader(p)) == 1

    def test_large_pc_values(self, tmp_path):
        p = tmp_path / "s.samples"
        with SampleFileWriter(p, "GLOBAL_POWER_EVENTS", 90_000) as w:
            w.write(sample(pc=0xFFFF_FFFF_FFFF))
        assert next(iter(SampleFileReader(p))).pc == 0xFFFF_FFFF_FFFF


class TestValidation:
    def test_bad_period_rejected(self, tmp_path):
        with pytest.raises(SampleFormatError):
            SampleFileWriter(tmp_path / "x", "E", 0)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(SampleFormatError, match="bad magic"):
            SampleFileReader(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(MAGIC[:2])
        with pytest.raises(SampleFormatError, match="truncated"):
            SampleFileReader(p)

    def test_torn_record(self, tmp_path):
        p = tmp_path / "torn.samples"
        with SampleFileWriter(p, "GLOBAL_POWER_EVENTS", 90_000) as w:
            w.write(sample())
        data = p.read_bytes()
        p.write_bytes(data[:-3])  # chop mid-record
        with pytest.raises(SampleFormatError, match="torn record"):
            SampleFileReader(p)

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "v.samples"
        with SampleFileWriter(p, "E1", 1000) as w:
            w.write(sample())
        data = bytearray(p.read_bytes())
        data[4] = 99  # version byte (little endian H at offset 4)
        p.write_bytes(bytes(data))
        with pytest.raises(SampleFormatError, match="version"):
            SampleFileReader(p)

"""Tests for the shared record codec: roundtrips through both registered
formats, magic sniffing, legacy layout stability, the path + byte
offset contract on corruption errors, and the reader's file handles."""

import struct

import pytest

from repro.errors import SampleFormatError
from repro.profiling.model import RawSample
from repro.profiling.record_codec import (
    CORE_CODEC,
    DOMAIN_CODEC,
    RecordCodec,
    RecordFileReader,
    RecordFileWriter,
    codec_for_magic,
    open_sample_record_file,
    register_codec,
)


def raw(pc=0x1000, task=7, epoch=3):
    return RawSample(
        pc=pc, event_name="GLOBAL_POWER_EVENTS", task_id=task,
        kernel_mode=False, cycle=12345, epoch=epoch,
    )


class TestCodecRegistry:
    def test_known_magics(self):
        assert codec_for_magic(b"VPRS") is CORE_CODEC
        assert codec_for_magic(b"XPRS") is DOMAIN_CODEC
        assert codec_for_magic(b"ZZZZ") is None

    def test_reregistering_same_codec_is_idempotent(self):
        assert register_codec(CORE_CODEC) is CORE_CODEC

    def test_conflicting_registration_rejected(self):
        clash = RecordCodec(magic=b"VPRS", version=99, has_domain=True)
        with pytest.raises(SampleFormatError, match="already registered"):
            register_codec(clash)

    def test_domain_column_is_the_only_difference(self):
        assert (
            DOMAIN_CODEC.record_size
            == CORE_CODEC.record_size + struct.calcsize("<H")
        )

    def test_domain_codec_requires_domain_id(self):
        with pytest.raises(SampleFormatError, match="domain id"):
            DOMAIN_CODEC.pack(raw())


class TestRoundTrip:
    def test_core_roundtrip(self, tmp_path):
        path = tmp_path / "e.samples"
        with RecordFileWriter(path, CORE_CODEC, "EV", 1000) as w:
            w.write(raw(pc=0xAA))
            w.write(raw(pc=0xBB))
        reader = open_sample_record_file(path)
        records = list(reader)
        assert [r.sample.pc for r in records] == [0xAA, 0xBB]
        assert all(r.domain_id is None for r in records)
        assert reader.event_name == "EV" and reader.period == 1000

    def test_domain_roundtrip(self, tmp_path):
        path = tmp_path / "x.samples"
        with RecordFileWriter(path, DOMAIN_CODEC, "EV", 1000) as w:
            w.write(raw(pc=0xAA), domain_id=0)
            w.write(raw(pc=0xBB), domain_id=3)
        records = list(open_sample_record_file(path))
        assert [(r.sample.pc, r.domain_id) for r in records] == [
            (0xAA, 0), (0xBB, 3),
        ]

    def test_sniffed_reader_reports_len(self, tmp_path):
        path = tmp_path / "e.samples"
        with RecordFileWriter(path, CORE_CODEC, "EV", 1000) as w:
            for i in range(5):
                w.write(raw(pc=i))
        assert len(open_sample_record_file(path)) == 5

    def test_reader_is_reiterable(self, tmp_path):
        path = tmp_path / "e.samples"
        with RecordFileWriter(path, CORE_CODEC, "EV", 1000) as w:
            w.write(raw())
        reader = open_sample_record_file(path)
        assert len(list(reader)) == 1
        assert len(list(reader)) == 1

    def test_legacy_core_layout_is_stable(self, tmp_path):
        """The on-disk byte layout predates the codec registry; files
        written by hand in the legacy layout must still parse."""
        name = b"GLOBAL_POWER_EVENTS"
        blob = struct.pack("<4sHH", b"VPRS", 2, len(name)) + name
        blob += struct.pack("<Q", 90_000)
        blob += struct.pack("<QIBQq", 0xDEAD, 9, 1, 777, -1)
        path = tmp_path / "legacy.samples"
        path.write_bytes(blob)
        records = list(open_sample_record_file(path))
        assert len(records) == 1
        s = records[0].sample
        assert (s.pc, s.task_id, s.kernel_mode, s.cycle, s.epoch) == (
            0xDEAD, 9, True, 777, -1,
        )


class TestCorruptionErrors:
    def make_file(self, tmp_path, n=3):
        path = tmp_path / "e.samples"
        with RecordFileWriter(path, CORE_CODEC, "EV", 1000) as w:
            for i in range(n):
                w.write(raw(pc=i))
        return path

    def test_truncated_header_names_path_and_offset(self, tmp_path):
        path = tmp_path / "t.samples"
        path.write_bytes(b"VP")
        with pytest.raises(SampleFormatError) as e:
            open_sample_record_file(path)
        assert str(path) in str(e.value)
        assert "truncated header at byte offset 2" in str(e.value)

    def test_bad_magic_names_path_and_offset(self, tmp_path):
        path = tmp_path / "b.samples"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(SampleFormatError) as e:
            open_sample_record_file(path)
        assert str(path) in str(e.value)
        assert "bad magic" in str(e.value) and "byte offset 0" in str(e.value)

    def test_version_mismatch_names_expected_version(self, tmp_path):
        name = b"EV"
        blob = struct.pack("<4sHH", b"VPRS", 99, len(name)) + name
        blob += struct.pack("<Q", 1000)
        path = tmp_path / "v.samples"
        path.write_bytes(blob)
        with pytest.raises(SampleFormatError, match="version 99, expected 2"):
            open_sample_record_file(path)

    def test_torn_record_names_offset_and_sizes(self, tmp_path):
        path = self.make_file(tmp_path, n=2)
        path.write_bytes(path.read_bytes() + b"\x01\x02\x03")
        with pytest.raises(SampleFormatError) as e:
            open_sample_record_file(path)
        msg = str(e.value)
        assert str(path) in msg
        assert "torn record at byte offset" in msg
        assert "3 trailing bytes" in msg
        assert f"record size {CORE_CODEC.record_size}" in msg

    def test_pinned_reader_rejects_other_magic(self, tmp_path):
        path = tmp_path / "x.samples"
        with RecordFileWriter(path, DOMAIN_CODEC, "EV", 1000) as w:
            w.write(raw(), domain_id=0)
        with pytest.raises(SampleFormatError, match="bad magic"):
            RecordFileReader(path, codec=CORE_CODEC)


class TestReaderHandleHygiene:
    def make(self, tmp_path, n=10):
        from tests.pipeline.test_parallel import write_sample_file

        return write_sample_file(tmp_path / "h.samples", n)

    def test_context_manager_releases_handle(self, tmp_path):
        with RecordFileReader(self.make(tmp_path)) as reader:
            assert reader._fh is not None
            n = sum(1 for _ in reader)
        assert n == 10
        assert reader._fh is None

    def test_closed_reader_can_still_iterate(self, tmp_path):
        reader = RecordFileReader(self.make(tmp_path))
        reader.close()
        assert sum(1 for _ in reader) == 10  # opens a private handle

    def test_concurrent_iterations_do_not_collide(self, tmp_path):
        with RecordFileReader(self.make(tmp_path)) as reader:
            outer = reader.iter_records()
            first = next(outer)
            inner = list(reader.iter_records())  # private handle
            rest = list(outer)
        assert len(inner) == 10
        assert [first, *rest] == inner

    def test_range_validation(self, tmp_path):
        with RecordFileReader(self.make(tmp_path)) as reader:
            with pytest.raises(SampleFormatError):
                list(reader.iter_field_chunks(start_record=11))
            with pytest.raises(SampleFormatError):
                list(reader.iter_field_chunks(0, 11))
            assert sum(len(c) for c in reader.iter_field_chunks(4, 6)) == 6

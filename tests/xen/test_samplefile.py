"""Tests for the domain-tagged XenoProf sample-file format (``XPRS``)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SampleFormatError
from repro.profiling.model import RawSample
from repro.profiling.record_codec import (
    DOMAIN_CODEC,
    RecordFileReader,
    RecordFileWriter,
)


def raw(pc=0x1000, epoch=3):
    return RawSample(
        pc=pc, event_name="GLOBAL_POWER_EVENTS", task_id=1000,
        kernel_mode=False, cycle=7, epoch=epoch,
    )


def write_tagged(path, event, period, tagged):
    with RecordFileWriter(path, DOMAIN_CODEC, event, period) as w:
        w.write_batch([s for s, _ in tagged], [d for _, d in tagged])


def read_tagged(path):
    with RecordFileReader(path, codec=DOMAIN_CODEC) as r:
        return [(rec.sample, rec.domain_id) for rec in r]


class TestRoundTrip:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "x.samples"
        originals = [(raw(0x1000), 0), (raw(0x2000), 1), (raw(0x3000), 2)]
        write_tagged(p, "GLOBAL_POWER_EVENTS", 90_000, originals)
        assert read_tagged(p) == originals

    def test_header(self, tmp_path):
        p = tmp_path / "x.samples"
        write_tagged(p, "BSQ_CACHE_REFERENCE", 2_000, [])
        with RecordFileReader(p, codec=DOMAIN_CODEC) as r:
            assert r.event_name == "BSQ_CACHE_REFERENCE"
            assert r.period == 2_000
            assert len(r) == 0

    def test_distinct_magic_from_core_format(self, tmp_path):
        from repro.profiling.samplefile import MAGIC, SampleFileReader

        assert DOMAIN_CODEC.magic != MAGIC
        p = tmp_path / "x.samples"
        write_tagged(p, "E", 1000, [(raw(), 1)])
        with pytest.raises(SampleFormatError, match="bad magic"):
            SampleFileReader(p)

    def test_torn_record_rejected(self, tmp_path):
        p = tmp_path / "x.samples"
        write_tagged(p, "E", 1000, [(raw(), 1)])
        p.write_bytes(p.read_bytes()[:-2])
        with pytest.raises(SampleFormatError, match="torn"):
            RecordFileReader(p, codec=DOMAIN_CODEC)

    @given(
        domains=st.lists(
            st.integers(min_value=0, max_value=65535), max_size=30
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_domain_ids_roundtrip(self, tmp_path_factory, domains):
        p = tmp_path_factory.mktemp("x") / "d.samples"
        write_tagged(p, "E", 1000, [(raw(), d) for d in domains])
        assert [d for _, d in read_tagged(p)] == domains


class TestEnginePersistence:
    def test_save_samples_roundtrip(self, tmp_path):
        from repro.xen import GuestSpec, MultiStackEngine
        from tests.conftest import make_tiny_workload

        engine = MultiStackEngine(
            [GuestSpec(make_tiny_workload(base_time_s=0.1))],
            period=30_000,
            session_dir=tmp_path,
        )
        result = engine.run()
        paths = result.save_samples()
        assert paths
        reloaded = []
        for p in paths:
            reloaded.extend(read_tagged(p))
        assert len(reloaded) == len(result.buffer)
        # Per-domain counts survive the round trip.
        from collections import Counter

        on_disk = Counter(d for _, d in reloaded)
        assert dict(on_disk) == result.buffer.per_domain

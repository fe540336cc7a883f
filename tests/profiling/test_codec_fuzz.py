"""Fuzz the record codec against torn and corrupted files.

The robustness contract (both magics, ``VPRS`` and ``XPRS``): feeding the
reader a randomly truncated or bit-flipped sample file must end in one of
exactly three outcomes —

* a clean parse;
* a :class:`~repro.errors.SampleFormatError` naming the file (and, for
  structural damage, the byte offset of the failure);
* a salvage: :func:`probe_sample_file` measures the tear and truncating
  at ``probe.truncate_to`` yields a clean record-aligned prefix of the
  original stream.

What must *never* happen is a silent misparse — a parse that succeeds but
disagrees with the original stream anywhere the damage didn't touch.

The column decode is pinned the same way: for any record range and any
decode-chunk size, the numpy chunks ``iter_field_chunks`` yields, joined,
list exactly the fields ``struct.iter_unpack`` reads from the same bytes,
with every field drawn over its full on-disk range.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SampleFormatError
from repro.profiling import record_codec
from repro.profiling.model import RawSample
from repro.profiling.record_codec import (
    CORE_CODEC,
    CORE_RECORD_SIZE,
    DOMAIN_CODEC,
    DOMAIN_RECORD_SIZE,
    RecordFileReader,
    RecordFileWriter,
    open_sample_record_file,
    probe_sample_file,
)

_EVENT = "GLOBAL_POWER_EVENTS"
_PERIOD = 90_000

SAMPLES = st.lists(
    st.builds(
        RawSample,
        pc=st.integers(min_value=0, max_value=(1 << 64) - 1),
        event_name=st.just(_EVENT),
        task_id=st.integers(min_value=0, max_value=(1 << 32) - 1),
        kernel_mode=st.booleans(),
        cycle=st.integers(min_value=0, max_value=(1 << 63) - 1),
        epoch=st.integers(min_value=-1, max_value=(1 << 31) - 1),
    ),
    max_size=30,
)

CODECS = st.sampled_from([CORE_CODEC, DOMAIN_CODEC])


def _write_file(path, codec, samples):
    with RecordFileWriter(path, codec, _EVENT, _PERIOD) as w:
        for i, s in enumerate(samples):
            w.write(s, domain_id=i % 4 if codec.has_domain else None)


def _read_all(path):
    with open_sample_record_file(path) as r:
        return [(rec.sample, rec.domain_id) for rec in r]


@given(samples=SAMPLES, codec=CODECS, data=st.data())
@settings(max_examples=120, deadline=None)
def test_truncation_parses_fails_loudly_or_salvages(
    tmp_path_factory, samples, codec, data
):
    path = tmp_path_factory.mktemp("fuzz") / "t.samples"
    _write_file(path, codec, samples)
    original = _read_all(path)
    blob = path.read_bytes()

    cut = data.draw(
        st.integers(min_value=0, max_value=len(blob)), label="cut"
    )
    path.write_bytes(blob[:cut])

    try:
        probe = probe_sample_file(path)
    except SampleFormatError as e:
        # Header damage: unsalvageable, and the error says where.
        assert str(path) in str(e)
        assert "offset" in str(e)
        return

    # Body damage (or no damage): salvage at the record boundary must
    # yield a clean parse of an exact prefix of the original stream.
    assert probe.truncate_to <= cut + probe.trailing_bytes
    with open(path, "r+b") as fh:
        fh.truncate(probe.truncate_to)
    salvaged = _read_all(path)
    assert salvaged == original[: probe.n_records]


@given(samples=SAMPLES, codec=CODECS, data=st.data())
@settings(max_examples=120, deadline=None)
def test_bit_flip_never_misparses_silently(
    tmp_path_factory, samples, codec, data
):
    path = tmp_path_factory.mktemp("fuzz") / "t.samples"
    _write_file(path, codec, samples)
    original = _read_all(path)
    blob = bytearray(path.read_bytes())

    pos = data.draw(
        st.integers(min_value=0, max_value=len(blob) - 1), label="pos"
    )
    bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
    blob[pos] ^= 1 << bit
    path.write_bytes(bytes(blob))

    data_start = len(blob) - len(samples) * codec.record_size
    try:
        flipped = _read_all(path)
    except SampleFormatError as e:
        # Loud failure is always acceptable; it must name the file.
        assert str(path) in str(e)
        return

    # The parse succeeded: it must agree with the original everywhere
    # the flipped byte can't reach.  A flip inside record i may change
    # record i's decoded fields (the format carries no checksum); any
    # other divergence is a silent misparse.
    assert len(flipped) == len(original)
    if pos >= data_start:
        hit = (pos - data_start) // codec.record_size
        for i, (got, want) in enumerate(zip(flipped, original)):
            if i != hit:
                assert got == want, f"record {i} changed by a flip in {hit}"
    else:
        # Header flip that still parses (event name or period byte):
        # the record stream itself must be untouched.  The event name
        # is header data replicated into every decoded sample, so it is
        # legitimately renamed by a flip in the name bytes — compare
        # the struct-packed fields only.
        def fields(records):
            return [
                (s.pc, s.task_id, s.kernel_mode, s.cycle, s.epoch, d)
                for s, d in records
            ]

        assert fields(flipped) == fields(original)


@given(samples=SAMPLES, codec=CODECS)
@settings(max_examples=60, deadline=None)
def test_probe_agrees_with_reader_on_clean_files(
    tmp_path_factory, samples, codec
):
    path = tmp_path_factory.mktemp("fuzz") / "t.samples"
    _write_file(path, codec, samples)
    probe = probe_sample_file(path)
    assert not probe.torn
    assert probe.n_records == len(samples)
    assert probe.magic == codec.magic
    assert probe.record_size == codec.record_size
    assert probe.event_name == _EVENT
    assert probe.period == _PERIOD
    assert probe.truncate_to == path.stat().st_size


#: Raw record fields over their full on-disk ranges, in file order:
#: pc, task_id, the kernel_mode byte, cycle, epoch, domain_id.
RECORDS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
        st.integers(min_value=0, max_value=65_535),
    ),
    max_size=40,
)


def test_dtype_itemsize_is_the_record_size():
    assert CORE_CODEC.dtype.itemsize == CORE_RECORD_SIZE
    assert DOMAIN_CODEC.dtype.itemsize == DOMAIN_RECORD_SIZE


@given(records=RECORDS, codec=CODECS, data=st.data())
@settings(max_examples=120, deadline=None)
def test_field_chunks_equal_struct_unpack(
    tmp_path_factory, records, codec, data
):
    width = 6 if codec.has_domain else 5
    blob = b"".join(codec.record_struct.pack(*r[:width]) for r in records)
    path = tmp_path_factory.mktemp("columns") / "t.samples"
    with RecordFileWriter(path, codec, _EVENT, _PERIOD) as w:
        w.write_packed(blob, len(records))

    start = data.draw(st.integers(0, len(records)), label="start_record")
    n = data.draw(st.integers(0, len(records) - start), label="n_records")
    chunk = data.draw(st.integers(1, 8), label="decode chunk")
    size = codec.record_size
    expected = list(
        codec.record_struct.iter_unpack(blob[start * size:(start + n) * size])
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(record_codec, "_CHUNK_RECORDS", chunk)
        with RecordFileReader(path) as reader:
            chunks = list(reader.iter_field_chunks(start, n))
    assert all(c.dtype == codec.dtype for c in chunks)
    assert all(0 < len(c) <= chunk for c in chunks)
    assert [t for c in chunks for t in c.tolist()] == expected

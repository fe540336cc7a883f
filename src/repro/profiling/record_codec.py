"""Shared struct-packed record codec for on-disk sample files.

Both sample-file flavours in the tree — the core OProfile/VIProf format
(magic ``VPRS``) and the domain-tagged XenoProf format (magic ``XPRS``) —
share one header layout and one core record definition; the XenoProf
record merely appends a domain-id column.  This module holds that single
definition behind a small versioned registry, so
:mod:`repro.profiling.samplefile` is a thin format-pinning wrapper, the
XenoProf engine writes ``XPRS`` through :class:`RecordFileWriter` with
:data:`DOMAIN_CODEC` directly, and the streaming pipeline
(:mod:`repro.pipeline.source`) can open *any* sample file by sniffing the
magic.

Layout (little endian)::

    header:  4s magic | H version | H event-name length | name bytes
             Q sampling period
    record:  Q pc | I task_id | B kernel_mode | Q cycle | q epoch
             [ H domain        -- codecs with has_domain only ]

Files are append-only; a reader tolerates a clean EOF between records but
rejects torn records and bad magic.  Reader errors always name the file
and the byte offset of the failure, so a corrupt artifact can be located
with ``dd``/``xxd`` without re-running anything.

The reader streams: it validates the header and the body length up front
(via ``stat``, not by slurping the file) and then decodes records in
fixed-size chunks, so memory stays constant in the number of samples.
Chunk decode copies nothing: :meth:`RecordFileReader.iter_field_chunks`
yields each chunk as an ``np.frombuffer`` record array of
:attr:`RecordCodec.dtype`, a numpy dtype derived from the codec's own
struct format, so the layout has one definition.
:meth:`RecordFileReader.iter_records` builds its records from
``tolist()`` of 4,096-record slices of a chunk; the streaming pipeline's
hot loop (:mod:`repro.pipeline.parallel`) builds none: it groups each
chunk's records by resolution key in numpy.  A reader holds one open handle
for its lifetime (it is a context manager); shard workers read disjoint
record ranges of the same file via ``start_record``/``n_records``.

The write path mirrors the batched decode: :meth:`RecordCodec.pack_many`
bulk-encodes a whole batch in one grow-and-append pack loop over a single
``bytearray``, and :class:`RecordFileWriter` buffers encoded records
behind a configurable high-water mark (``buffer_bytes``), spilling to the
OS in large contiguous writes.  Batching is strictly a throughput knob:
``write_batch``/``pack_many`` output is byte-identical to a per-record
``write`` loop over the same stream (property-tested in
``tests/profiling/test_batch_write.py``), and a writer is a context
manager symmetric with the reader — exit flushes and closes, so a closed
file never holds back buffered records.

Spills are **record-aligned and crash-safe**: the writer holds a raw
(unbuffered) handle, so the only byte boundaries the OS ever sees are the
writer's own, and if an OS write fails mid-spill the file is truncated
back to the last whole record before the error propagates — an exception
escaping between a watermark spill and ``flush()`` can no longer leave a
partial record on disk (regression-tested in
``tests/profiling/test_writer_recovery.py``).  The one producer of torn
files left is a genuine crash *during* a spill, which is exactly what the
``writer.spill`` fault point (:mod:`repro.faults`) simulates and
:func:`probe_sample_file` + ``viprof recover`` repair.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from repro.errors import SampleFormatError
from repro.faults import injector as faults
from repro.profiling.model import RawSample

__all__ = [
    "SampleRecord",
    "RecordCodec",
    "CORE_CODEC",
    "DOMAIN_CODEC",
    "codec_for_magic",
    "register_codec",
    "RecordFileWriter",
    "RecordFileReader",
    "open_sample_record_file",
    "probe_sample_file",
    "SampleFileProbe",
    "DEFAULT_WRITE_BUFFER_BYTES",
    "CORE_RECORD_SIZE",
    "DOMAIN_RECORD_SIZE",
]

_HEADER_FIXED = struct.Struct("<4sHH")
_HEADER_PERIOD = struct.Struct("<Q")

#: Core record columns shared by every codec.
_CORE_RECORD_FORMAT = "<QIBQq"
#: The optional trailing domain-id column.
_DOMAIN_COLUMN = "H"
#: Full layout of a domain-tagged record (``XPRS``).
_DOMAIN_RECORD_FORMAT = _CORE_RECORD_FORMAT + _DOMAIN_COLUMN
#: Column names, one per format character after the byte-order mark.
_COLUMNS = ("pc", "task_id", "kernel_mode", "cycle", "epoch", "domain_id")

#: Declared record sizes, cross-checked against the formats above by the
#: SL207 codec-consistency lint.  Deliberately prime (PR 5): any slicing
#: stride that silently agrees with a power-of-two assumption breaks.
CORE_RECORD_SIZE = 29
DOMAIN_RECORD_SIZE = 31

#: Records decoded per read when streaming a file body: large enough
#: that a chunk collapses to far fewer distinct resolution keys than
#: records, small enough that one chunk's bytes stay under 1 MiB.
_CHUNK_RECORDS = 32768

#: Records a per-record reader turns into Python objects at a time, so
#: its peak memory stays near one chunk's bytes.
_RECORD_SLICE = 4096

#: Default writer high-water mark in bytes: encoded records accumulate in
#: the writer's pending buffer and spill to the file once it crosses this.
#: 0 spills after every append — the pre-batching per-record behaviour.
DEFAULT_WRITE_BUFFER_BYTES = 1 << 20


@dataclass(frozen=True, slots=True)
class SampleRecord:
    """One decoded record: the core sample plus the optional domain tag.

    ``domain_id`` is None for codecs without a domain column (the core
    ``VPRS`` format); consumers that do not care about domains can read
    ``.sample`` uniformly.
    """

    sample: RawSample
    domain_id: int | None = None


@dataclass(frozen=True)
class RecordCodec:
    """One on-disk record layout: a magic, a version, and the columns."""

    magic: bytes
    version: int
    has_domain: bool

    def __post_init__(self) -> None:
        if len(self.magic) != 4:
            raise SampleFormatError(f"codec magic must be 4 bytes: {self.magic!r}")
        fmt = _DOMAIN_RECORD_FORMAT if self.has_domain else _CORE_RECORD_FORMAT
        object.__setattr__(self, "_record", struct.Struct(fmt))
        # numpy reads each struct code at the same width (the format has
        # no native-width "L"), and a field list without offsets packs
        # the columns back to back, as struct's "<" does.
        object.__setattr__(self, "_dtype", np.dtype([
            (name, fmt[0] + code) for name, code in zip(_COLUMNS, fmt[1:])
        ]))

    @property
    def record_struct(self) -> struct.Struct:
        return self._record  # type: ignore[attr-defined]

    @property
    def dtype(self) -> np.dtype:
        """The record layout as a packed little-endian numpy structured
        dtype, one named field per struct column."""
        return self._dtype  # type: ignore[attr-defined]

    @property
    def record_size(self) -> int:
        return self.record_struct.size

    def pack(self, sample: RawSample, domain_id: int | None = None) -> bytes:
        """Encode one record; ``domain_id`` is required iff the codec has
        a domain column."""
        core = (
            sample.pc,
            sample.task_id,
            1 if sample.kernel_mode else 0,
            sample.cycle,
            sample.epoch,
        )
        if self.has_domain:
            if domain_id is None:
                raise SampleFormatError(
                    f"codec {self.magic!r} requires a domain id"
                )
            return self.record_struct.pack(*core, domain_id)
        return self.record_struct.pack(*core)

    def pack_many(
        self,
        samples: Iterable[RawSample],
        domain_ids: Iterable[int] | None = None,
    ) -> bytes:
        """Bulk-encode a batch of records into one contiguous buffer.

        Byte-identical to concatenating :meth:`pack` over the same stream
        — one pack loop appending into a single ``bytearray``, so the
        per-record Python work is field access only.  ``domain_ids`` is
        required iff the codec has a domain column (and, like
        :meth:`pack`, ignored when it does not) and must yield exactly
        one id per sample.
        """
        if not isinstance(samples, (list, tuple)):
            samples = list(samples)
        pack = self.record_struct.pack
        buf = bytearray()
        if self.has_domain:
            if domain_ids is None:
                raise SampleFormatError(
                    f"codec {self.magic!r} requires a domain id"
                )
            if not isinstance(domain_ids, (list, tuple)):
                domain_ids = list(domain_ids)
            if len(domain_ids) != len(samples):
                raise SampleFormatError(
                    f"codec {self.magic!r}: {len(samples)} samples but "
                    f"{len(domain_ids)} domain ids"
                )
            for s, d in zip(samples, domain_ids):
                buf += pack(
                    s.pc, s.task_id, 1 if s.kernel_mode else 0,
                    s.cycle, s.epoch, d,
                )
        else:
            for s in samples:
                buf += pack(
                    s.pc, s.task_id, 1 if s.kernel_mode else 0,
                    s.cycle, s.epoch,
                )
        return bytes(buf)

    def unpack_fields(self, fields: tuple, event_name: str) -> SampleRecord:
        """Decode one tuple of struct fields into a :class:`SampleRecord`."""
        pc, task, kmode, cycle, epoch = fields[:5]
        return SampleRecord(
            sample=RawSample(
                pc=pc,
                event_name=event_name,
                task_id=task,
                kernel_mode=bool(kmode),
                cycle=cycle,
                epoch=epoch,
            ),
            domain_id=fields[5] if self.has_domain else None,
        )


#: The core sample-file codec (stock OProfile and VIProf sessions).
CORE_CODEC = RecordCodec(magic=b"VPRS", version=2, has_domain=False)

#: The domain-tagged XenoProf codec.
DOMAIN_CODEC = RecordCodec(magic=b"XPRS", version=1, has_domain=True)

#: Registry of known codecs, keyed by magic.  Versioning is per magic: a
#: reader finding a known magic with an unknown version fails with a
#: version error, not a bad-magic error.
_CODECS: dict[bytes, RecordCodec] = {}


def register_codec(codec: RecordCodec) -> RecordCodec:
    """Register a codec so :func:`open_sample_record_file` can sniff it."""
    existing = _CODECS.get(codec.magic)
    if existing is not None and existing != codec:
        raise SampleFormatError(
            f"codec magic {codec.magic!r} already registered"
        )
    _CODECS[codec.magic] = codec
    return codec


register_codec(CORE_CODEC)
register_codec(DOMAIN_CODEC)


def codec_for_magic(magic: bytes) -> RecordCodec | None:
    """Look up a registered codec by its 4-byte magic."""
    return _CODECS.get(magic)


class RecordFileWriter:
    """Streams records for one hardware event to disk in a codec's format.

    Encoded records accumulate in a pending buffer and are written to the
    file in one contiguous ``write`` each time the buffer crosses the
    ``buffer_bytes`` high-water mark (``None`` selects
    :data:`DEFAULT_WRITE_BUFFER_BYTES`; ``0`` spills after every append,
    reproducing the per-record behaviour).  Buffering never reorders:
    records land in exactly the order they were appended, so batched and
    per-record use produce byte-identical files.  The writer is a context
    manager symmetric with :class:`RecordFileReader` — exit (or
    :meth:`close`) flushes before closing.
    """

    def __init__(
        self,
        path: Path | str,
        codec: RecordCodec,
        event_name: str,
        period: int,
        buffer_bytes: int | None = None,
    ) -> None:
        if period <= 0:
            raise SampleFormatError(f"non-positive period {period}")
        self.path = Path(path)
        self.codec = codec
        self.event_name = event_name
        self.period = period
        self.buffer_bytes = (
            DEFAULT_WRITE_BUFFER_BYTES if buffer_bytes is None
            else max(0, buffer_bytes)
        )
        self._pending = bytearray()
        self._crashed = False
        # Raw (unbuffered) handle: every write below is a real OS write,
        # so the only byte boundaries that can ever land on disk are the
        # writer's own — a prerequisite for record-aligned crash safety.
        self._fh: BinaryIO = open(self.path, "wb", buffering=0)
        name = event_name.encode("utf-8")
        header = bytearray(
            _HEADER_FIXED.pack(codec.magic, codec.version, len(name))
        )
        header += name
        header += _HEADER_PERIOD.pack(period)
        self._fh.write(bytes(header))
        self._data_start = len(header)
        self.samples_written = 0

    def write(self, sample: RawSample, domain_id: int | None = None) -> None:
        self._pending += self.codec.pack(sample, domain_id)
        self.samples_written += 1
        if len(self._pending) >= self.buffer_bytes:
            self._spill()

    def write_batch(
        self,
        samples: Iterable[RawSample],
        domain_ids: Iterable[int] | None = None,
    ) -> int:
        """Encode and append a whole batch of samples in one pass.

        Returns the number of records appended.  Output is byte-identical
        to calling :meth:`write` per sample in the same order.
        """
        if not isinstance(samples, (list, tuple)):
            samples = list(samples)
        return self.write_packed(
            self.codec.pack_many(samples, domain_ids), len(samples)
        )

    def write_packed(self, data: bytes | bytearray, n_records: int) -> int:
        """Append ``n_records`` pre-encoded records (from
        :meth:`RecordCodec.pack_many`).

        Lets a caller that emits the same record run repeatedly — the
        benchmark synthesizers replicating a seed session — pay the encode
        cost once per distinct run instead of once per written record.
        """
        if len(data) != n_records * self.codec.record_size:
            raise SampleFormatError(
                f"{self.path}: packed batch is {len(data)} bytes, expected "
                f"{n_records} records x {self.codec.record_size} bytes"
            )
        self._pending += data
        self.samples_written += n_records
        if len(self._pending) >= self.buffer_bytes:
            self._spill()
        return n_records

    def _spill(self) -> None:
        """Hand the pending buffer to the OS in whole records (ordered).

        Crash-safe: if the underlying write raises partway through, the
        file is truncated back to the last whole record before the error
        propagates, so an exception escaping between a watermark spill
        and :meth:`flush` never leaves a partial record on disk.
        """
        if self._crashed:
            # A simulated crash already abandoned this writer: buffered
            # records die with the process, exactly like a real kill.
            self._pending = bytearray()
            return
        if not self._pending:
            return
        data, self._pending = self._pending, bytearray()
        if faults.armed():
            faults.fire(
                faults.WRITER_SPILL,
                effect=lambda rng: self._torn_spill(data, rng),
            )
        view = memoryview(data)
        written = 0
        try:
            while written < len(data):
                n = self._fh.write(view[written:])
                written += n if n is not None else 0
        except OSError:
            self._truncate_to_record_boundary()
            raise

    def _truncate_to_record_boundary(self) -> None:
        """Drop any partial trailing record left by a failed OS write."""
        try:
            fd = self._fh.fileno()
            size = os.fstat(fd).st_size
            excess = (size - self._data_start) % self.codec.record_size
            if excess:
                os.ftruncate(fd, size - excess)
            self._fh.seek(0, os.SEEK_END)
        except OSError:  # pragma: no cover - double-fault: keep original
            pass

    def _torn_spill(self, data: bytearray, rng) -> None:
        """Fault effect (``writer.spill``): the crash lands mid-``write``,
        so a prefix of the pending buffer — cut *inside* a record — is
        what reaches the file.  Poisons the writer so no later flush can
        repair the tear (the process is considered dead)."""
        rsize = self.codec.record_size
        cut = rng.randrange(1, len(data)) if len(data) > 1 else 1
        if cut % rsize == 0:
            cut = cut + 1 if cut + 1 <= len(data) else cut - 1
        self._fh.write(bytes(data[:cut]))
        self.abandon()

    def abandon(self) -> None:
        """Simulate this writer's process dying: buffered records are
        dropped and every later spill/flush/close is a no-op apart from
        releasing the handle.  Only fault effects call this."""
        self._crashed = True
        self._pending = bytearray()

    def flush(self) -> None:
        """Spill the pending buffer and flush to the OS (idempotent)."""
        self._spill()
        if not self._crashed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "RecordFileWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _read_header(
    fh: BinaryIO, path: Path, codec: RecordCodec | None = None
) -> tuple[RecordCodec, str, int, int]:
    """Parse a sample file's header from ``fh``, positioned at byte 0.

    Returns ``(codec, event_name, period, data_start)``.  ``codec`` pins
    the expected format; None accepts any registered magic.  Read errors
    propagate as :class:`OSError`; header damage raises
    :class:`~repro.errors.SampleFormatError` naming ``path`` and the byte
    offset.
    """
    head = fh.read(_HEADER_FIXED.size)
    if len(head) < _HEADER_FIXED.size:
        raise SampleFormatError(
            f"{path}: truncated header at byte offset "
            f"{len(head)} (fixed header is {_HEADER_FIXED.size} bytes)"
        )
    magic, version, name_len = _HEADER_FIXED.unpack(head)
    if codec is not None and magic != codec.magic:
        raise SampleFormatError(
            f"{path}: bad magic {magic!r} at byte offset 0 "
            f"(expected {codec.magic!r})"
        )
    known = codec_for_magic(magic)
    if known is None:
        raise SampleFormatError(
            f"{path}: bad magic {magic!r} at byte offset 0"
        )
    if version != known.version:
        raise SampleFormatError(
            f"{path}: version {version}, expected "
            f"{known.version} (magic {magic!r})"
        )
    rest = fh.read(name_len + _HEADER_PERIOD.size)
    if len(rest) < name_len + _HEADER_PERIOD.size:
        raise SampleFormatError(
            f"{path}: truncated header at byte offset "
            f"{_HEADER_FIXED.size + len(rest)}"
        )
    try:
        event_name = rest[:name_len].decode("utf-8")
    except UnicodeDecodeError as e:
        raise SampleFormatError(
            f"{path}: undecodable event name at byte offset "
            f"{_HEADER_FIXED.size}: {e}"
        ) from None
    (period,) = _HEADER_PERIOD.unpack_from(rest, name_len)
    data_start = _HEADER_FIXED.size + name_len + _HEADER_PERIOD.size
    return known, event_name, period, data_start


class RecordFileReader:
    """Streaming reader: validates the header and body length up front,
    then decodes records chunk by chunk on iteration.

    Args:
        path: the sample file.
        codec: pin the expected format; None sniffs the magic against the
            registry (any known format accepted).

    Raises:
        SampleFormatError: truncated header, unknown or unexpected magic,
            version mismatch, or a torn trailing record — always naming
            the file and the byte offset of the failure.
    """

    def __init__(self, path: Path | str, codec: RecordCodec | None = None) -> None:
        self.path = Path(path)
        try:
            size = self.path.stat().st_size
            fh = open(self.path, "rb")
        except OSError as e:
            raise SampleFormatError(f"{self.path}: unreadable: {e}") from None
        try:
            self.codec, self.event_name, self.period, self._data_start = (
                _read_header(fh, self.path, codec)
            )
        except (OSError, SampleFormatError):
            # Header parsing can only fail with a read error or one of
            # its format errors; anything else would mask a real bug
            # behind a closed handle.
            fh.close()
            raise
        body = size - self._data_start
        rsize = self.codec.record_size
        if body % rsize:
            fh.close()
            torn_at = self._data_start + (body // rsize) * rsize
            raise SampleFormatError(
                f"{self.path}: torn record at byte offset {torn_at} "
                f"({body % rsize} trailing bytes, record size {rsize})"
            )
        self._n_records = body // rsize
        # The header handle stays open for iteration; close() (or the
        # context manager) releases it.  A busy handle (an iteration in
        # flight) makes a concurrent iteration open its own.
        self._fh: BinaryIO | None = fh
        self._busy = False

    def __len__(self) -> int:
        return self._n_records

    def close(self) -> None:
        """Release the reader's file handle (idempotent; safe to call on
        a reader whose constructor failed before the handle was kept —
        failed constructors close their handle themselves)."""
        fh = getattr(self, "_fh", None)
        if fh is not None:
            self._fh = None
            if not fh.closed:
                fh.close()

    def __enter__(self) -> "RecordFileReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        self.close()

    def iter_field_chunks(
        self, start_record: int = 0, n_records: int | None = None
    ) -> Iterator[np.ndarray]:
        """Stream the body as numpy record arrays of the codec's
        :attr:`~RecordCodec.dtype`.

        Each yielded array is one decode chunk of up to
        ``_CHUNK_RECORDS`` records: a read-only ``np.frombuffer`` view of
        the bytes read, so decoding copies nothing and builds no Python
        object per record.  ``start_record``/``n_records`` select a
        sub-range, which is how shard workers split one large file
        without re-reading it whole.

        The reader's own handle is reused (seek) when free; a second
        concurrent iteration opens a private handle, so a reader can be
        iterated more than once without holding the body in memory.
        """
        if start_record < 0 or start_record > self._n_records:
            raise SampleFormatError(
                f"{self.path}: shard start {start_record} outside "
                f"0..{self._n_records}"
            )
        count = (
            self._n_records - start_record
            if n_records is None
            else n_records
        )
        if count < 0 or start_record + count > self._n_records:
            raise SampleFormatError(
                f"{self.path}: shard range {start_record}+{count} outside "
                f"{self._n_records} records"
            )
        dtype = self.codec.dtype
        rsize = self.codec.record_size
        chunk_bytes = _CHUNK_RECORDS * rsize
        remaining = count * rsize
        if self._fh is not None and not self._fh.closed and not self._busy:
            fh, own = self._fh, False
            self._busy = True
        else:
            fh, own = open(self.path, "rb"), True
        try:
            fh.seek(self._data_start + start_record * rsize)
            while remaining > 0:
                chunk = fh.read(min(chunk_bytes, remaining))
                if len(chunk) % rsize:
                    torn_at = (
                        self._data_start
                        + (start_record + count) * rsize
                        - remaining
                        + (len(chunk) // rsize) * rsize
                    )
                    raise SampleFormatError(
                        f"{self.path}: torn record at byte offset {torn_at} "
                        f"(file shrank while reading)"
                    )
                if not chunk:
                    break
                remaining -= len(chunk)
                yield np.frombuffer(chunk, dtype=dtype)
        finally:
            if own:
                fh.close()
            else:
                self._busy = False

    def iter_records(
        self, start_record: int = 0, n_records: int | None = None
    ) -> Iterator[SampleRecord]:
        """Stream decoded records for a record range (whole file by default)."""
        codec = self.codec
        unpack_fields = codec.unpack_fields
        event_name = self.event_name
        for records in self.iter_field_chunks(start_record, n_records):
            # Python objects for one bounded slice of the chunk at a time.
            for lo in range(0, len(records), _RECORD_SLICE):
                for fields in records[lo : lo + _RECORD_SLICE].tolist():
                    yield unpack_fields(fields, event_name)

    def __iter__(self) -> Iterator[SampleRecord]:
        """Stream every record; a reader can be iterated more than once."""
        return self.iter_records()


def open_sample_record_file(path: Path | str) -> RecordFileReader:
    """Open a sample file of *any* registered format by sniffing its magic."""
    return RecordFileReader(path, codec=None)


@dataclass(frozen=True, slots=True)
class SampleFileProbe:
    """Torn-record diagnosis of one sample file (either magic).

    ``n_records`` whole records survive; ``trailing_bytes`` is the length
    of the partial record after them (0 for a clean file).  Truncating the
    file to ``truncate_to`` makes it a valid record-aligned prefix.
    """

    path: Path
    magic: bytes
    event_name: str
    period: int
    record_size: int
    data_start: int
    n_records: int
    trailing_bytes: int

    @property
    def torn(self) -> bool:
        return self.trailing_bytes > 0

    @property
    def truncate_to(self) -> int:
        return self.data_start + self.n_records * self.record_size


def probe_sample_file(path: Path | str) -> SampleFileProbe:
    """Diagnose a possibly-torn sample file without rejecting the tear.

    Validates the header exactly like :class:`RecordFileReader` — header
    damage still raises :class:`~repro.errors.SampleFormatError` (such a
    file identifies no codec, so nothing can be salvaged from it) — but a
    torn *body* is returned as a measurement instead of an error.  This is
    the detection half of ``viprof recover``: the salvager truncates torn
    files at ``truncate_to``, the last whole-record boundary.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            codec, event_name, period, data_start = _read_header(fh, path)
    except OSError as e:
        raise SampleFormatError(f"{path}: unreadable: {e}") from None
    body = size - data_start
    rsize = codec.record_size
    return SampleFileProbe(
        path=path,
        magic=codec.magic,
        event_name=event_name,
        period=period,
        record_size=rsize,
        data_start=data_start,
        n_records=body // rsize,
        trailing_bytes=body % rsize,
    )

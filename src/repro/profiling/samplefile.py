"""Packed on-disk sample files (the core ``VPRS`` format).

OProfile's daemon periodically drains the kernel sample buffer to per-image
sample files; the post-processing tools read them back.  We reproduce that
boundary with a compact binary format (struct-packed records behind a small
header), because the *existence* of the on-disk handoff is load-bearing for
the paper: the daemon's write path is part of the overhead model, and the
post-processors operate strictly on files, never on live state.

The header/record layout lives in :mod:`repro.profiling.record_codec`,
which both this module and the domain-tagged XenoProf flavour (``XPRS``,
written by :mod:`repro.xen.engine`) share; this module pins the core
``VPRS`` codec (no domain column).  Readers stream records in constant memory and
report corruption with the file path and byte offset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.profiling.model import RawSample
from repro.profiling.record_codec import (
    CORE_CODEC,
    RecordFileReader,
    RecordFileWriter,
)

__all__ = ["SampleFileWriter", "SampleFileReader", "MAGIC", "VERSION"]

MAGIC = CORE_CODEC.magic
VERSION = CORE_CODEC.version


class SampleFileWriter(RecordFileWriter):
    """Streams :class:`RawSample` records for one hardware event to disk."""

    def __init__(
        self,
        path: Path | str,
        event_name: str,
        period: int,
        buffer_bytes: int | None = None,
    ) -> None:
        super().__init__(
            path, CORE_CODEC, event_name, period, buffer_bytes=buffer_bytes
        )

    def __enter__(self) -> "SampleFileWriter":
        return self


class SampleFileReader(RecordFileReader):
    """Reads a core-format sample file back; validates header and record
    integrity on construction, then streams records on iteration."""

    def __init__(self, path: Path | str) -> None:
        super().__init__(path, codec=CORE_CODEC)

    def __iter__(self) -> Iterator[RawSample]:
        for record in super().__iter__():
            yield record.sample

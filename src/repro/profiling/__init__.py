"""Shared profiling data model and report machinery.

Used by both the OProfile baseline and VIProf:

* :mod:`repro.profiling.model` — raw samples, resolved samples, layers, and
  ground-truth labels;
* :mod:`repro.profiling.record_codec` — the versioned header/record codec
  registry behind every packed sample file (core and domain-tagged);
* :mod:`repro.profiling.samplefile` — the core ``VPRS`` on-disk sample
  format the daemon writes and the post-processors read;
* :mod:`repro.profiling.report` — streaming aggregation into per-symbol
  rows and the opreport-style table formatter.
"""

from repro.profiling.model import (
    Layer,
    RawSample,
    ResolvedSample,
    TruthLabel,
)
from repro.profiling.record_codec import (
    RecordCodec,
    RecordFileReader,
    RecordFileWriter,
    SampleRecord,
    codec_for_magic,
    open_sample_record_file,
    register_codec,
)
from repro.profiling.samplefile import SampleFileReader, SampleFileWriter
from repro.profiling.report import (
    ProfileReport,
    StreamingAggregator,
    SymbolRow,
    build_report,
)
from repro.profiling.annotate import SymbolAnnotation, annotate_symbol
from repro.profiling.export import report_to_csv

__all__ = [
    "Layer",
    "RawSample",
    "ResolvedSample",
    "TruthLabel",
    "RecordCodec",
    "RecordFileReader",
    "RecordFileWriter",
    "SampleRecord",
    "codec_for_magic",
    "open_sample_record_file",
    "register_codec",
    "SampleFileReader",
    "SampleFileWriter",
    "ProfileReport",
    "StreamingAggregator",
    "SymbolRow",
    "build_report",
    "SymbolAnnotation",
    "annotate_symbol",
    "report_to_csv",
]

"""Tests for CSV report export."""

import csv
import io

from repro.profiling.export import report_to_csv
from repro.profiling.model import RawSample, ResolvedSample
from repro.profiling.report import build_report


def resolved(image, symbol, event="GLOBAL_POWER_EVENTS"):
    raw = RawSample(
        pc=0x1000, event_name=event, task_id=1, kernel_mode=False, cycle=0
    )
    return ResolvedSample(raw=raw, image=image, symbol=symbol)


def sample_report():
    samples = (
        [resolved("JIT.App", "app.Main.hot")] * 3
        + [resolved("libc-2.3.2.so", "memset")]
        + [resolved("JIT.App", "app.Main.hot", event="BSQ_CACHE_REFERENCE")]
    )
    return build_report(
        samples, events=("GLOBAL_POWER_EVENTS", "BSQ_CACHE_REFERENCE")
    )


class TestCsvExport:
    def test_header_and_rows(self):
        text = report_to_csv(sample_report())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:2] == ["image", "symbol"]
        assert "GLOBAL_POWER_EVENTS_samples" in rows[0]
        assert rows[1][:2] == ["JIT.App", "app.Main.hot"]
        assert rows[1][2] == "3"

    def test_sorted_by_primary_event(self):
        text = report_to_csv(sample_report())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[1][1] == "app.Main.hot"
        assert rows[2][1] == "memset"

    def test_empty_report(self):
        rep = build_report([], events=("GLOBAL_POWER_EVENTS",))
        rows = list(csv.reader(io.StringIO(report_to_csv(rep))))
        assert len(rows) == 1

"""CSV report export.

A pure function of a :class:`~repro.profiling.report.ProfileReport`, so it
works for any profiler variant (stock, VIProf, XenoProf-unified) and
feeds spreadsheets and pandas.  The machine-readable profile document is
the :class:`~repro.metrics.model.SessionSummary` that
``viprof report --json`` prints.
"""

from __future__ import annotations

import csv
import io

from repro.profiling.report import ProfileReport

__all__ = ["report_to_csv"]


def report_to_csv(report: ProfileReport) -> str:
    """Serialize a report to CSV: one row per symbol, one sample and one
    percent column per event."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["image", "symbol"]
    for ev in report.events:
        header += [f"{ev}_samples", f"{ev}_percent"]
    writer.writerow(header)
    for row in report.sorted_rows():
        record = [row.image, row.symbol]
        for ev in report.events:
            record += [row.count(ev), f"{report.percent(row, ev):.4f}"]
        writer.writerow(record)
    return buf.getvalue()

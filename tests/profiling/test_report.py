"""Unit tests for profile aggregation and the opreport-style table."""

from repro.profiling.model import RawSample, ResolvedSample
from repro.profiling.report import build_report


def resolved(image, symbol, event="GLOBAL_POWER_EVENTS", pc=0x1000):
    raw = RawSample(
        pc=pc, event_name=event, task_id=1, kernel_mode=False, cycle=0
    )
    return ResolvedSample(raw=raw, image=image, symbol=symbol)


class TestBuildReport:
    def test_counts_aggregate_per_symbol(self):
        samples = [
            resolved("a.so", "f"),
            resolved("a.so", "f"),
            resolved("a.so", "g"),
        ]
        rep = build_report(samples)
        assert rep.row_for("a.so", "f").count("GLOBAL_POWER_EVENTS") == 2
        assert rep.row_for("a.so", "g").count("GLOBAL_POWER_EVENTS") == 1
        assert rep.totals["GLOBAL_POWER_EVENTS"] == 3

    def test_multi_event_columns(self):
        samples = [
            resolved("a.so", "f", event="GLOBAL_POWER_EVENTS"),
            resolved("a.so", "f", event="BSQ_CACHE_REFERENCE"),
            resolved("a.so", "f", event="BSQ_CACHE_REFERENCE"),
        ]
        rep = build_report(
            samples, events=("GLOBAL_POWER_EVENTS", "BSQ_CACHE_REFERENCE")
        )
        row = rep.row_for("a.so", "f")
        assert row.count("GLOBAL_POWER_EVENTS") == 1
        assert row.count("BSQ_CACHE_REFERENCE") == 2

    def test_unlisted_event_ignored(self):
        samples = [resolved("a.so", "f", event="OTHER_EVENT")]
        rep = build_report(samples, events=("GLOBAL_POWER_EVENTS",))
        assert rep.row_for("a.so", "f") is None

    def test_percent(self):
        samples = [resolved("a", "f")] * 3 + [resolved("b", "g")]
        rep = build_report(samples)
        assert rep.percent(rep.row_for("a", "f"), "GLOBAL_POWER_EVENTS") == 75.0

    def test_sorted_rows_by_primary_event(self):
        samples = [resolved("a", "f")] + [resolved("b", "g")] * 3
        rep = build_report(samples)
        rows = rep.sorted_rows()
        assert (rows[0].image, rows[0].symbol) == ("b", "g")

    def test_image_share(self):
        samples = [resolved("a", "f"), resolved("a", "g"), resolved("b", "h")]
        rep = build_report(samples)
        assert abs(rep.image_share("a") - 2 / 3) < 1e-9

    def test_empty_report(self):
        rep = build_report([], events=("GLOBAL_POWER_EVENTS",))
        assert rep.sorted_rows() == []
        assert rep.image_share("x") == 0.0


class TestFormatTable:
    def test_header_labels(self):
        samples = [
            resolved("a", "f", event="GLOBAL_POWER_EVENTS"),
            resolved("a", "f", event="BSQ_CACHE_REFERENCE"),
        ]
        rep = build_report(
            samples, events=("GLOBAL_POWER_EVENTS", "BSQ_CACHE_REFERENCE")
        )
        table = rep.format_table()
        head = table.splitlines()[0]
        assert "Time %" in head
        assert "Dmiss %" in head
        assert "Image name" in head

    def test_limit(self):
        samples = [resolved("a", f"f{i}") for i in range(20)]
        rep = build_report(samples)
        assert len(rep.format_table(limit=5).splitlines()) == 6

    def test_custom_labels(self):
        rep = build_report([resolved("a", "f", event="INSTR_RETIRED")])
        table = rep.format_table(column_labels={"INSTR_RETIRED": "Instr %"})
        assert "Instr %" in table

    def test_rows_contain_percentages(self):
        rep = build_report([resolved("a", "f")] * 2)
        assert "100.0000" in rep.format_table()

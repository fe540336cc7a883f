"""Tests for the analyze engine: alignment, derived rates, gating, inputs."""

import json
from pathlib import Path

import pytest

from repro.errors import AnalysisError
from repro.metrics.analyze import (
    align_shares,
    analyze,
    derived_metrics,
    load_input,
)
from repro.metrics.build import summary_from_report
from repro.metrics.model import (
    KIND_ARTIFACTS,
    KIND_COLLECTION,
    KIND_PROFILE,
    SessionSummary,
)
from repro.metrics.panels import (
    AnalysisConfig,
    SymbolRules,
    Threshold,
    load_config,
)
from repro.profiling.model import RawSample, ResolvedSample
from repro.profiling.report import build_report

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
REGRESSION_A = FIXTURES / "analyze" / "regression-a.json"
REGRESSION_B = FIXTURES / "analyze" / "regression-b.json"
EV = "GLOBAL_POWER_EVENTS"


def report_summary(spec: dict[str, int], event: str = EV) -> SessionSummary:
    """The summary of a one-event report holding ``spec[symbol]`` samples
    of each ``JIT.App`` symbol."""
    raw = RawSample(
        pc=0x1000, event_name=event, task_id=1, kernel_mode=False, cycle=0
    )
    samples = [
        ResolvedSample(raw=raw, image="JIT.App", symbol=symbol)
        for symbol, n in spec.items()
        for _ in range(n)
    ]
    return summary_from_report(build_report(samples, events=(event,)))


class TestIdentity:
    def test_identical_summaries_have_zero_deltas(self):
        a = load_input(REGRESSION_A)
        b = load_input(REGRESSION_A)
        result = analyze(a, b)
        assert result.ok
        assert all(s.delta == 0.0 for s in result.symbols)
        assert all(m.delta == 0.0 for m in result.metrics)

    def test_identity_json_is_byte_stable(self):
        runs = [
            analyze(load_input(REGRESSION_A), load_input(REGRESSION_A)).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert json.loads(runs[0])["ok"] is True


class TestSeededRegression:
    def test_fixture_pair_trips_all_gates(self):
        # The pair predates the memo's removal: its ``cache`` panel still
        # loads and compares, but no gate reads it.
        result = analyze(load_input(REGRESSION_A), load_input(REGRESSION_B))
        assert not result.ok
        subjects = {r.subject for r in result.regressions}
        assert subjects == {
            "JIT.App:fixture.app.Alpha.run",  # +15pt gain
            "JIT.App:fixture.app.Hot.spin",   # appeared at 2%
            "layers.kernel_pct",              # 20% -> 35%
        }

    def test_vanished_symbol_is_flagged_not_gated(self):
        before = {("JIT.App", "gone"): 40.0, ("JIT.App", "stays"): 60.0}
        after = {("JIT.App", "stays"): 100.0}
        deltas = {d.symbol: d for d in align_shares(before, after)}
        assert deltas["gone"].vanished and not deltas["gone"].appeared
        assert deltas["gone"].delta == -40.0

    def test_kind_mismatch_raises(self):
        with pytest.raises(AnalysisError, match="cannot analyze"):
            analyze(
                SessionSummary(kind=KIND_PROFILE),
                SessionSummary(kind=KIND_COLLECTION),
            )

    def test_pinned_event_missing_raises(self):
        config = AnalysisConfig(symbols=SymbolRules(event="ITLB_MISS"))
        a = load_input(REGRESSION_A)
        with pytest.raises(AnalysisError, match="ITLB_MISS"):
            analyze(a, a, config=config)

    @pytest.mark.parametrize("missing_on", ["a", "b"])
    def test_explicit_event_missing_raises(self, missing_on):
        has, lacks = report_summary({"m": 1}), report_summary(
            {"m": 1}, event="BSQ_CACHE_REFERENCE"
        )
        pair = (lacks, has) if missing_on == "a" else (has, lacks)
        with pytest.raises(AnalysisError, match="missing from one summary"):
            analyze(*pair, event=EV)


class TestReportSummaries:
    """``analyze`` over ``summary_from_report`` summaries: the comparison
    ``viprof diff`` and ``SessionStore.diff`` print."""

    @pytest.mark.parametrize(
        "before, after, deltas, appeared, vanished",
        [
            ({"a": 50, "b": 50}, {"a": 80, "b": 20},
             {"a": 30.0, "b": -30.0}, [], []),
            ({"a": 3, "b": 1}, {"a": 3, "b": 1},
             {"a": 0.0, "b": 0.0}, [], []),
            ({"a": 10}, {"b": 10}, {"a": -100.0, "b": 100.0}, ["b"], ["a"]),
        ],
        ids=["moved", "identical", "swapped"],
    )
    def test_share_deltas(self, before, after, deltas, appeared, vanished):
        result = analyze(report_summary(before), report_summary(after))
        assert result.event == EV
        assert {s.symbol: s.delta for s in result.symbols} == pytest.approx(
            deltas
        )
        assert [s.symbol for s in result.symbols if s.appeared] == appeared
        assert [s.symbol for s in result.symbols if s.vanished] == vanished

    def test_sorted_symbols_largest_move_first(self):
        result = analyze(
            report_summary({"a": 50, "b": 45, "c": 5}),
            report_summary({"a": 5, "b": 55, "c": 40}),
        )
        assert [s.symbol for s in result.sorted_symbols()] == ["a", "c", "b"]

    def test_no_common_event_compares_no_symbols(self):
        result = analyze(
            report_summary({"a": 1}),
            report_summary({"a": 1}, event="BSQ_CACHE_REFERENCE"),
        )
        assert result.event is None and result.symbols == []


class TestDerivedMetrics:
    def test_total_yields_percentages(self):
        s = SessionSummary(
            panels={"layers": {"kernel": 25, "jit": 75, "total": 100}}
        )
        derived = derived_metrics(s)["layers"]
        assert derived["kernel_pct"] == 25.0
        assert derived["jit_pct"] == 75.0
        assert "total_pct" not in derived

    def test_zero_denominators_yield_no_rates(self):
        s = SessionSummary(panels={"layers": {"kernel": 0, "total": 0}})
        derived = derived_metrics(s)
        assert "kernel_pct" not in derived["layers"]

    def test_max_ratio_gate(self):
        config = AnalysisConfig(
            symbols=SymbolRules(max_gain_points=None, max_appear_points=None),
            thresholds=(
                Threshold(metric="daemon.work_cycles", max_ratio=1.5),
            ),
        )
        a = SessionSummary(panels={"daemon": {"work_cycles": 100}})
        b = SessionSummary(panels={"daemon": {"work_cycles": 200}})
        result = analyze(a, b, config=config)
        assert [r.subject for r in result.regressions] == ["daemon.work_cycles"]
        assert analyze(b, a, config=config).ok  # shrinking is fine

    def test_absent_gated_metric_is_skipped(self):
        config = AnalysisConfig(
            thresholds=(Threshold(metric="gc.nope", max_delta=1.0),)
        )
        empty = SessionSummary()
        assert analyze(empty, empty, config=config).ok


class TestConfigLoading:
    def test_json_config(self, tmp_path):
        path = tmp_path / "gates.json"
        path.write_text(json.dumps({
            "symbols": {"max_gain_points": 2.5, "event": EV},
            "thresholds": [
                {"metric": "cache.hit_rate_pct", "direction": "down",
                 "max_delta": 1.0},
            ],
        }))
        config = load_config(path)
        assert config.symbols.max_gain_points == 2.5
        assert config.symbols.event == EV
        assert config.thresholds[0].panel == "cache"
        assert config.thresholds[0].key == "hit_rate_pct"

    def test_toml_config(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "gates.toml"
        path.write_text(
            '[symbols]\nmax_appear_points = 0.5\n\n'
            '[[thresholds]]\nmetric = "layers.kernel_pct"\n'
            'direction = "up"\nmax_delta = 3.0\n'
        )
        config = load_config(path)
        assert config.symbols.max_appear_points == 0.5
        assert config.thresholds[0].metric == "layers.kernel_pct"

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "gates.json"
        path.write_text(json.dumps({
            "thresholds": [{"metric": "a.b", "direction": "sideways",
                            "max_delta": 1.0}],
        }))
        with pytest.raises(AnalysisError, match="direction"):
            load_config(path)

    def test_unbounded_threshold_rejected(self):
        with pytest.raises(AnalysisError, match="neither"):
            Threshold(metric="a.b")


class TestLoadInput:
    def test_session_directory_derives_artifacts_summary(self):
        summary = load_input(FIXTURES / "lint-session")
        assert summary.kind == KIND_ARTIFACTS
        assert summary.totals == {EV: 7}
        layers = summary.panel("layers")
        assert layers["total"] == 7 and layers["kernel"] == 1
        # The six heap samples all resolve through the epoch maps.
        assert summary.panel("jit")["resolved"] == 6
        assert {e.symbol for e in summary.symbols} >= {
            "fixture.app.Alpha.run", "fixture.app.Beta.step"
        }

    def test_identical_session_dirs_compare_clean(self):
        a = load_input(FIXTURES / "lint-session")
        b = load_input(FIXTURES / "lint-session-batched")
        result = analyze(a, b)
        assert result.ok
        assert all(s.delta == 0.0 for s in result.symbols)

    def test_unrecognized_input_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(AnalysisError, match="unrecognized input"):
            load_input(path)

    def test_embedded_bench_summary_rejected(self, tmp_path):
        """A retired ``BENCH_*.json`` document (provenance at the top,
        a ``kind: bench`` summary embedded under ``"summary"``) is no
        analyze input."""
        path = tmp_path / "BENCH_demo.json"
        embedded = SessionSummary(kind=KIND_COLLECTION).to_dict()
        embedded["kind"] = "bench"
        path.write_text(json.dumps({
            "schema_version": 1,
            "cpu_count": 1,
            "samples": 1000,
            "summary": embedded,
        }))
        with pytest.raises(AnalysisError, match="unrecognized input"):
            load_input(path)

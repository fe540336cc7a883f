"""CLI coverage for ``viprof analyze``, both ``viprof diff`` forms, and
the ``report --json`` document they read."""

import json
from pathlib import Path

from repro.cli import main
from repro.metrics.build import summary_from_run
from repro.metrics.model import SessionSummary
from repro.system.api import viprof_profile
from repro.workloads import by_name

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
REGRESSION_A = str(FIXTURES / "analyze" / "regression-a.json")
REGRESSION_B = str(FIXTURES / "analyze" / "regression-b.json")
SESSION = str(FIXTURES / "lint-session")
SESSION_BATCHED = str(FIXTURES / "lint-session-batched")


class TestAnalyzeCli:
    def test_identity_exits_zero(self, capsys):
        assert main(
            ["analyze", REGRESSION_A, REGRESSION_A, "--fail-on-regression"]
        ) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_regression_without_fail_flag_exits_zero(self, capsys):
        assert main(["analyze", REGRESSION_A, REGRESSION_B]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out and "fixture.app.Alpha.run" in out

    def test_fail_on_regression_exits_three(self, capsys):
        assert main(
            ["analyze", REGRESSION_A, REGRESSION_B, "--fail-on-regression"]
        ) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_json_output_is_byte_stable(self, capsys):
        outputs = []
        for _ in range(2):
            assert main(
                ["analyze", REGRESSION_A, REGRESSION_B, "--json"]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        doc = json.loads(outputs[0])
        assert doc["ok"] is False
        assert {r["subject"] for r in doc["regressions"]} == {
            "JIT.App:fixture.app.Alpha.run",
            "JIT.App:fixture.app.Hot.spin",
            "layers.kernel_pct",
        }

    def test_session_dirs_compare(self, capsys):
        assert main(
            ["analyze", SESSION, SESSION_BATCHED, "--fail-on-regression"]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_custom_config_loosens_gates(self, tmp_path, capsys):
        config = tmp_path / "gates.json"
        config.write_text(json.dumps({
            "symbols": {"max_gain_points": 50.0, "max_appear_points": 50.0},
            "thresholds": [],
        }))
        assert main(
            ["analyze", REGRESSION_A, REGRESSION_B,
             "--config", str(config), "--fail-on-regression"]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_missing_input_exits_two(self, capsys):
        assert main(
            ["analyze", REGRESSION_A, str(FIXTURES / "analyze" / "nope.json")]
        ) == 2
        assert "nope.json" in capsys.readouterr().err


class TestDiffTwoPaths:
    def test_diff_delegates_to_analyze(self, capsys):
        assert main(["diff", SESSION, SESSION_BATCHED]) == 0
        out = capsys.readouterr().out
        assert "analyze:" in out and "no regressions" in out

    def test_diff_three_paths_errors(self, capsys):
        assert main(["diff", SESSION, SESSION_BATCHED, SESSION]) == 2


def report_json(capsys, *extra: str) -> str:
    """The stdout of one ``viprof report fop --scale 0.05 --json`` run."""
    assert main(["report", "fop", "--scale", "0.05", "--json", *extra]) == 0
    return capsys.readouterr().out


class TestReportJson:
    def test_prints_the_runs_canonical_summary(self, tmp_path, capsys):
        out = report_json(capsys)
        run = viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.05, seed=7,
            session_dir=tmp_path / "session",
        )
        expected = summary_from_run(run, run.viprof_report())
        assert out == expected.to_canonical_json()
        assert out == report_json(capsys)
        assert SessionSummary.from_json(out).to_canonical_json() == out
        doc = tmp_path / "report-fop.json"
        doc.write_text(out)
        assert main(
            ["analyze", str(doc), str(doc), "--fail-on-regression"]
        ) == 0
        assert "no regressions" in capsys.readouterr().out


class TestDiffBenchmark:
    PERIODS = ("20000", "45000")

    def test_equals_analyze_over_report_json(self, tmp_path, capsys):
        docs = []
        for period in self.PERIODS:
            doc = tmp_path / f"report-{period}.json"
            doc.write_text(report_json(capsys, "--period", period))
            docs.append(str(doc))
        assert main(["analyze", *docs, "--rows", "12"]) == 0
        analyzed = capsys.readouterr().out
        assert main(
            ["diff", "fop", "--scale", "0.05", "--period", *self.PERIODS]
        ) == 0
        diffed = capsys.readouterr().out
        assert diffed.splitlines()[0] == (
            "analyze: period 20000 -> period 45000 [profile]"
        )
        assert diffed.splitlines()[1:] == analyzed.splitlines()[1:]

    def test_config_applies_and_never_gates(self, tmp_path, capsys):
        argv = ["diff", "fop", "--scale", "0.05", "--period", *self.PERIODS]
        assert main(argv) == 0
        assert "FAIL [symbol]" in capsys.readouterr().out
        config = tmp_path / "gates.json"
        config.write_text(json.dumps({
            "symbols": {"max_gain_points": 50.0, "max_appear_points": 50.0},
            "thresholds": [],
        }))
        assert main(argv + ["--config", str(config)]) == 0
        assert "no regressions" in capsys.readouterr().out

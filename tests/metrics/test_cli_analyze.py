"""CLI coverage for ``viprof analyze`` and the two-path ``viprof diff``."""

import json
from pathlib import Path

from repro.cli import main

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

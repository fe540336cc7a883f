"""Verdicts of the parent/change comparison on result sets whose answer
is known."""

from __future__ import annotations

import json

from benchmarks.e2e.compare import main, verdict
from benchmarks.e2e.summary import Metric

LOWER = Metric("op_p50_s", "s", "lower", 0.10)
HIGHER = Metric("samples_per_s", "samples/s", "higher", 0.10)
EXACT = Metric("viprof_overhead_pct", "%", "lower", 0.0)
BASE = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
NOISY = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]


def scaled(values, k):
    return [v * k for v in values]


def test_verdicts():
    assert verdict(BASE, scaled(BASE, 0.8), LOWER)["verdict"] == "better"
    assert verdict(BASE, scaled(BASE, 1.2), LOWER)["verdict"] == "worse"
    assert verdict(BASE, scaled(BASE, 1.03), LOWER)["verdict"] == "unchanged"
    assert verdict(NOISY, NOISY[::-1], LOWER)["verdict"] == "unresolved"
    assert verdict(BASE, scaled(BASE, 1.3), HIGHER)["verdict"] == "better"
    assert verdict(BASE, scaled(BASE, 0.8), HIGHER)["verdict"] == "worse"
    assert verdict([5.0] * 10, [5.0] * 10, EXACT)["verdict"] == "unchanged"
    assert verdict([5.0] * 10, [5.01] * 10, EXACT)["verdict"] == "worse"
    # Seed-fixed values differ across seeds but not within a pair.
    assert verdict(NOISY, list(NOISY), EXACT)["verdict"] == "unchanged"


def test_wide_spread_is_not_unresolved_when_every_change_run_wins():
    # Every change run beats every parent run, but the medians differ by
    # less than the parent's quartile spread: no gain claimed, no doubt.
    assert verdict(NOISY, [0.55] * 10, LOWER)["verdict"] == "unchanged"
    # Wins every pair by a hair: within the noise, so unresolved.
    assert verdict(NOISY, [v - 0.01 for v in NOISY], LOWER)["verdict"] == "unresolved"


def write_runs(path, op_s, started=0):
    path.mkdir()
    for i, v in enumerate(op_s):
        run = {"workload": "profile", "started": started + 2 * i, "trace": 0,
               "metrics": {"op_p50_s": {"value": v, "unit": "s"}}}
        (path / f"run-{i}.json").write_text(json.dumps(run))


def test_cli_exit_codes(tmp_path, capsys):
    write_runs(tmp_path / "parent", BASE)
    write_runs(tmp_path / "same", BASE, started=1)
    write_runs(tmp_path / "slow", scaled(BASE, 1.3), started=1)
    write_runs(tmp_path / "few", BASE[:9], started=1)
    assert main([str(tmp_path / "parent"), str(tmp_path / "same")]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert main([str(tmp_path / "parent"), str(tmp_path / "slow")]) == 1
    assert "worse" in capsys.readouterr().out
    assert main([str(tmp_path / "parent"), str(tmp_path / "few")]) == 2

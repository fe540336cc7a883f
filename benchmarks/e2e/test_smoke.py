"""``BENCHMARK.json`` and the code cannot drift apart: the file's layout
is checked, and a ``--smoke`` run must emit exactly its metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.summary import BENCHMARK_JSON, LAYER_SOURCES, benchmark_metrics
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DOC = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def test_benchmark_json_layout():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in DOC["workloads"])
    e2e = {m["name"]: m for m in DOC["end_to_end"]}
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in e2e.values())
    assert all(0 <= m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(set(m) == {"name", "unit", "better"} for m in DOC["per_layer"])
    assert [m["name"] for m in DOC["per_layer"]] == list(LAYER_SOURCES)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_exactly_the_listed_metrics(trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--seed", "3",
         "--trace", str(trace), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    names = {m.name for m in
             benchmark_metrics("per_layer" if trace else "end_to_end")}
    assert set(result["metrics"]) == {
        f"{w}/{n}" for w in WORKLOADS for n in names
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

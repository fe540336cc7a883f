"""Unit tests for the experiment matrix structures (formatting/selectors;
the full runs are exercised by tests/integration and benchmarks)."""

import pytest

from repro.errors import ConfigError
from repro.system.experiment import (
    OverheadCell,
    OverheadMatrix,
    run_overhead_matrix,
)
from tests.conftest import make_tiny_workload


def cell(benchmark, profiler, period, slowdown):
    return OverheadCell(
        benchmark=benchmark, profiler=profiler, period=period,
        slowdown=slowdown, base_seconds=10.0,
        profiled_seconds=10.0 * slowdown,
    )


@pytest.fixture
def matrix():
    m = OverheadMatrix()
    for name, o90, v45, v90, v450 in (
        ("antlr", 1.035, 1.12, 1.10, 1.08),
        ("ps", 1.04, 1.075, 1.055, 1.035),
    ):
        m.base_seconds[name] = 10.0
        m.cells.append(cell(name, "oprofile", 90_000, o90))
        m.cells.append(cell(name, "viprof", 45_000, v45))
        m.cells.append(cell(name, "viprof", 90_000, v90))
        m.cells.append(cell(name, "viprof", 450_000, v450))
    return m


class TestOverheadMatrix:
    def test_cell_lookup(self, matrix):
        assert matrix.cell("antlr", "viprof", 90_000).slowdown == 1.10
        with pytest.raises(ConfigError):
            matrix.cell("antlr", "viprof", 1)

    def test_slowdowns_selector(self, matrix):
        v90 = matrix.slowdowns("viprof", 90_000)
        assert v90 == {"antlr": 1.10, "ps": 1.055}

    def test_average(self, matrix):
        assert matrix.average_slowdown("viprof", 90_000) == pytest.approx(
            (1.10 + 1.055) / 2
        )
        assert matrix.average_slowdown("nope", 90_000) == 0.0

    def test_figure2_format(self, matrix):
        txt = matrix.format_figure2()
        lines = txt.splitlines()
        assert "Oprof 90K" in lines[0] and "VIProf 450K" in lines[0]
        # Paper x-axis order: antlr before ps.
        assert lines[1].startswith("antlr")
        assert lines[2].startswith("ps")
        assert lines[-1].startswith("Average")

    def test_figure2_missing_cells_dashed(self):
        m = OverheadMatrix()
        m.base_seconds["ps"] = 10.0
        m.cells.append(cell("ps", "viprof", 90_000, 1.05))
        txt = m.format_figure2()
        assert "-" in txt.splitlines()[1]

    def test_figure3_format(self, matrix):
        txt = matrix.format_figure3()
        assert "Base time (s)" in txt
        assert "10.00" in txt
        assert txt.splitlines()[-1].startswith("Average")

    def test_paper_order_for_unknown_names(self, matrix):
        matrix.base_seconds["custom"] = 1.0
        txt = matrix.format_figure3()
        # Unknown benchmarks sort after the paper's nine.
        assert txt.splitlines()[-2].startswith("custom")


def test_overhead_sweep_leaves_no_session_directories(tmp_path, monkeypatch):
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    matrix = run_overhead_matrix([make_tiny_workload()], time_scale=0.05)
    assert len(matrix.cells) == 4
    assert list(tmp_path.iterdir()) == []

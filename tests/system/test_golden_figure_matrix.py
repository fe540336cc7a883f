"""Simulator golden: the Figure 2/3 matrix reproduces bit for bit.

``tests/fixtures/golden/figure_matrix.json`` (see ``regen_figure_matrix.py``
beside it) records, for all nine paper workloads under base, OProfile 90K
and VIProf 45K/90K/450K at reduced scale, every cycle, miss and CPU
statistic of the run and the hash of every session file, plus the two
figure tables.  Rerunning every cell must reproduce each record exactly:
a faster simulator may not move one simulated cycle.
"""

import json

import pytest

from tests.fixtures.golden.regen_figure_matrix import GOLDEN, run_matrix

EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def rerun(tmp_path_factory) -> dict:
    return run_matrix(tmp_path_factory.mktemp("figure-matrix"))


def test_params_are_the_fixtures(rerun):
    assert rerun["params"] == EXPECTED["params"]
    assert sorted(rerun["runs"]) == sorted(EXPECTED["runs"])


@pytest.mark.parametrize("cell", sorted(EXPECTED["runs"]))
def test_run_matches_golden(rerun, cell):
    assert rerun["runs"][cell] == EXPECTED["runs"][cell]


def test_every_profiled_cell_takes_samples():
    for cell, record in EXPECTED["runs"].items():
        if not cell.endswith("/base"):
            assert record["cpu_stats"]["nmi_count"] > 0, cell


def test_figure_tables_match_golden(rerun):
    assert rerun["figure2"] == EXPECTED["figure2"]
    assert rerun["figure3"] == EXPECTED["figure3"]

"""End-to-end run with more than the paper's two events, exercising the
counter bank's multi-counter paths, per-event sample files, and report
columns."""

import pytest

from repro.oprofile.opcontrol import EventSpec, OprofileConfig
from repro.profiling.export import report_to_csv
from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine
from tests.conftest import make_tiny_workload


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = OprofileConfig(
        events=(
            EventSpec("GLOBAL_POWER_EVENTS", 45_000),
            EventSpec("BSQ_CACHE_REFERENCE", 2_000),
            EventSpec("INSTR_RETIRED", 60_000),
            EventSpec("BRANCH_RETIRED", 30_000),
        )
    )
    engine = SystemEngine(
        make_tiny_workload(base_time_s=0.4),
        EngineConfig(
            mode=ProfilerMode.VIPROF,
            profile_config=cfg,
            session_dir=tmp_path_factory.mktemp("multi"),
            noise=False,
        ),
    )
    return engine.run()


class TestFourEventProfile:
    def test_all_event_files_written(self, run):
        files = {p.name for p in run.sample_dir.glob("*.samples")}
        assert files == {
            "GLOBAL_POWER_EVENTS.samples",
            "BSQ_CACHE_REFERENCE.samples",
            "INSTR_RETIRED.samples",
            "BRANCH_RETIRED.samples",
        }

    def test_report_has_four_columns(self, run):
        report = run.viprof_report().report
        assert len(report.events) == 4
        assert report.events[0] == "GLOBAL_POWER_EVENTS"
        for ev in report.events:
            assert report.totals[ev] > 0

    def test_instruction_samples_proportional_to_time(self, run):
        """INSTR_RETIRED at period 60K vs cycles at 45K: instructions
        accrue slower than cycles (CPI > 1), so instruction samples are
        fewer — but within the same order of magnitude."""
        report = run.viprof_report().report
        t = report.totals["GLOBAL_POWER_EVENTS"]
        i = report.totals["INSTR_RETIRED"]
        assert 0.1 < i / t < 1.5

    def test_exports_cover_all_events(self, run):
        report = run.viprof_report().report
        csv_text = report_to_csv(report)
        for ev in report.events:
            assert f"{ev}_samples" in csv_text

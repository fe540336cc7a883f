"""Tests for the three-function public API."""

import tempfile

from repro import base_run, oprofile_profile, viprof_profile
from repro.system.engine import ProfilerMode
from tests.conftest import make_tiny_workload


class TestApi:
    def test_base_run(self):
        r = base_run(make_tiny_workload(), time_scale=0.5)
        assert r.mode is ProfilerMode.NONE
        assert r.wall_cycles > 0

    def test_oprofile_profile(self, tmp_path):
        r = oprofile_profile(
            make_tiny_workload(), period=90_000, session_dir=tmp_path
        )
        assert r.mode is ProfilerMode.OPROFILE
        assert r.oprofile_report().totals["GLOBAL_POWER_EVENTS"] > 0

    def test_viprof_profile(self, tmp_path):
        r = viprof_profile(
            make_tiny_workload(), period=90_000, session_dir=tmp_path
        )
        assert r.mode is ProfilerMode.VIPROF
        assert r.viprof_report().jit_stats.jit_samples > 0

    def test_temp_session_dir_created(self, tmp_path, monkeypatch):
        # Without a session_dir the engine makes one in the temp root;
        # point the root at tmp_path so the run leaves nothing behind.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        r = viprof_profile(make_tiny_workload(base_time_s=0.05))
        assert r.session_dir is not None
        assert r.session_dir.exists()
        assert r.session_dir.parent == tmp_path

    def test_custom_period_propagates(self, tmp_path):
        r = viprof_profile(
            make_tiny_workload(), period=450_000, session_dir=tmp_path
        )
        assert r.config.profile_config.primary_period == 450_000

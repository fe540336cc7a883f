"""Tests for session archiving and cross-session diffing."""

import pytest

from repro.errors import ProfilerError
from repro.oprofile.archive import SessionStore
from repro.system.api import base_run, oprofile_profile, viprof_profile
from repro.workloads import by_name

SCALE = 0.08


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    root = tmp_path_factory.mktemp("sessions")
    runs = tmp_path_factory.mktemp("runs")
    store = SessionStore(root)
    v = viprof_profile(
        by_name("fop"), period=45_000, time_scale=SCALE,
        session_dir=runs / "v",
    )
    o = oprofile_profile(
        by_name("fop"), period=45_000, time_scale=SCALE,
        session_dir=runs / "o",
    )
    v2 = viprof_profile(
        by_name("fop"), period=45_000, time_scale=SCALE, seed=99,
        session_dir=runs / "v2",
    )
    store.archive(v, "fop-viprof")
    store.archive(o, "fop-oprofile")
    store.archive(v2, "fop-viprof-seed99")
    return store


class TestArchive:
    def test_sessions_listed(self, store):
        labels = [s.label for s in store.sessions()]
        assert labels == sorted(
            ["fop-viprof", "fop-oprofile", "fop-viprof-seed99"]
        )

    def test_metadata(self, store):
        s = store.get("fop-viprof")
        assert s.benchmark == "fop"
        assert s.mode == "viprof"
        assert s.period == 45_000
        assert s.meta["registration"] is not None

    def test_duplicate_label_rejected(self, store, tmp_path):
        v = viprof_profile(
            by_name("fop"), time_scale=SCALE, session_dir=tmp_path
        )
        with pytest.raises(ProfilerError, match="already exists"):
            store.archive(v, "fop-viprof")

    def test_unprofiled_run_rejected(self, store):
        with pytest.raises(ProfilerError, match="unprofiled"):
            store.archive(base_run(by_name("fop"), time_scale=SCALE), "base")

    def test_unknown_label(self, store):
        with pytest.raises(ProfilerError, match="no archived session"):
            store.get("nope")


class TestReplayResolution:
    @pytest.mark.parametrize("block", [None, {"task_id": 1000}])
    def test_missing_or_malformed_registration_rejected(
        self, store, tmp_path, block
    ):
        import json
        import shutil

        copy = SessionStore(tmp_path / "store")
        dest = copy.root / "broken"
        shutil.copytree(store.get("fop-viprof").path, dest)
        meta = json.loads((dest / "meta.json").read_text())
        meta["registration"] = block
        (dest / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ProfilerError, match="lacks a VM registration"):
            copy.report("broken")

    def test_viprof_report_from_archive(self, store):
        report = store.report("fop-viprof")
        assert any(r.image == "JIT.App" for r in report.rows)
        assert report.totals["GLOBAL_POWER_EVENTS"] > 0

    def test_oprofile_report_from_archive(self, store):
        report = store.report("fop-oprofile")
        assert any(r.image.startswith("anon (range:") for r in report.rows)

    def test_archived_report_matches_live_report(self, store, tmp_path):
        """Archival round trip: re-resolving archived samples reproduces
        the live run's report exactly (determinism of the rebuilt
        context)."""
        live = viprof_profile(
            by_name("fop"), period=45_000, time_scale=SCALE,
            session_dir=tmp_path / "live",
        )
        store.archive(live, "fop-roundtrip")
        archived_table = store.report("fop-roundtrip").format_table()
        live_table = live.viprof_report().report.format_table()
        assert archived_table == live_table


class TestCrossSessionDiff:
    def test_diff_same_config_different_seed(self, store):
        d = store.diff("fop-viprof", "fop-viprof-seed99")
        assert d.rows
        # Same workload model, different schedule: top symbols overlap but
        # shares move.
        assert any(abs(r.delta) > 0 for r in d.rows)

    def test_diff_mode_mismatch_is_still_comparable(self, store):
        """VIProf vs OProfile on the same run config: the diff exposes the
        attribution gap (JIT.App rows appear; anon rows vanish)."""
        d = store.diff("fop-oprofile", "fop-viprof")
        appeared = {r.image for r in d.appeared()}
        vanished = {r.image for r in d.vanished()}
        assert any(i == "JIT.App" for i in appeared)
        assert any(i.startswith("anon (range:") for i in vanished)

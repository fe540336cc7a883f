"""Tests for the full-system engine: assembly, accounting, profiler wiring."""

import pytest

from repro.errors import ConfigError
from repro.oprofile.opcontrol import OprofileConfig
from repro.profiling.model import Layer
from repro.system.api import viprof_profile
from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine
from repro.workloads import by_name
from tests.conftest import make_tiny_workload


def run(mode=ProfilerMode.NONE, tmp_path=None, **kw):
    wl_kw = kw.pop("workload_kwargs", {})
    wl = make_tiny_workload(base_time_s=0.15, **wl_kw)
    cfg_kw = dict(mode=mode, seed=3)
    if mode is not ProfilerMode.NONE:
        cfg_kw["profile_config"] = OprofileConfig.paper_config(90_000)
        cfg_kw["session_dir"] = tmp_path
    cfg_kw.update(kw)
    return SystemEngine(wl, EngineConfig(**cfg_kw)).run()


class TestConfigValidation:
    def test_profiled_mode_needs_config(self):
        with pytest.raises(ConfigError):
            EngineConfig(mode=ProfilerMode.OPROFILE)

    def test_bad_time_scale(self):
        with pytest.raises(ConfigError):
            EngineConfig(time_scale=0)


class TestBaseRun:
    def test_budget_reached(self):
        r = run()
        assert r.workload_cycles >= r.budget_cycles
        assert r.wall_cycles >= r.workload_cycles

    def test_ledger_covers_all_layers(self):
        r = run()
        for layer in (Layer.APP_JIT, Layer.VM, Layer.NATIVE, Layer.KERNEL,
                      Layer.OTHER):
            assert r.ledger.layer_cycles(layer) > 0, layer

    def test_no_profiler_artifacts(self):
        r = run()
        assert r.sample_dir is None
        assert r.daemon_stats is None
        assert r.agent_stats is None
        assert r.ledger.layer_cycles(Layer.DAEMON) == 0
        assert r.ledger.layer_cycles(Layer.AGENT) == 0

    def test_seconds_conversion(self):
        r = run()
        assert r.seconds == pytest.approx(r.wall_cycles / 3_400_000)

    def test_no_background_option(self):
        r = run(background=False)
        assert r.ledger.layer_cycles(Layer.OTHER) == 0

    def test_deterministic_wall_cycles(self):
        assert run().wall_cycles == run().wall_cycles


class TestOprofileRun:
    def test_samples_written(self, tmp_path):
        r = run(ProfilerMode.OPROFILE, tmp_path)
        assert r.sample_dir is not None
        assert r.daemon_stats.samples_logged > 0
        assert r.daemon_stats.jit_samples == 0  # stock daemon: no JIT path

    def test_overhead_positive(self, tmp_path):
        base = run(noise=False, background=False)
        prof = run(ProfilerMode.OPROFILE, tmp_path, noise=False,
                   background=False)
        assert prof.slowdown_vs(base) > 1.0

    def test_report_shows_anonymous_jit(self, tmp_path):
        r = run(ProfilerMode.OPROFILE, tmp_path)
        report = r.oprofile_report()
        anon = [row for row in report.rows if row.image.startswith("anon")]
        assert anon, "JIT samples should appear as anonymous ranges"

    def test_viprof_report_unavailable(self, tmp_path):
        r = run(ProfilerMode.OPROFILE, tmp_path)
        with pytest.raises(ConfigError):
            r.viprof_report()

    def test_daemon_cycles_in_ledger(self, tmp_path):
        r = run(ProfilerMode.OPROFILE, tmp_path)
        assert r.ledger.layer_cycles(Layer.DAEMON) > 0
        nmi = r.ledger.by_symbol.get(("vmlinux", "oprofile_nmi_handler"))
        assert nmi is not None and nmi.cycles > 0


class TestViprofRun:
    def test_agent_and_maps(self, tmp_path):
        r = run(ProfilerMode.VIPROF, tmp_path)
        assert r.agent_stats.compiles_logged > 0
        assert r.agent_stats.maps_written > 0
        maps = list((tmp_path / "jit-maps").iterdir())
        assert maps

    def test_jit_samples_classified(self, tmp_path):
        r = run(ProfilerMode.VIPROF, tmp_path)
        assert r.daemon_stats.jit_samples > 0

    def test_report_resolves_jit_methods(self, tmp_path):
        r = run(ProfilerMode.VIPROF, tmp_path)
        vr = r.viprof_report()
        assert vr.jit_stats.jit_samples > 0
        assert vr.jit_stats.resolution_rate > 0.9
        jit_rows = [
            row for row in vr.report.rows if row.image == "JIT.App"
        ]
        assert any(row.symbol.startswith("test.app") for row in jit_rows)

    def test_agent_cycles_in_ledger(self, tmp_path):
        r = run(ProfilerMode.VIPROF, tmp_path)
        assert r.ledger.layer_cycles(Layer.AGENT) > 0

    def test_epochs_stamped(self, tmp_path):
        from repro.profiling.samplefile import SampleFileReader

        r = run(ProfilerMode.VIPROF, tmp_path)
        f = next((tmp_path / "samples").glob("*.samples"))
        epochs = {s.epoch for s in SampleFileReader(f)}
        assert -1 not in epochs
        assert epochs

    def test_callgraph_recorded_when_enabled(self, tmp_path):
        r = run(ProfilerMode.VIPROF, tmp_path, record_callgraph=True)
        assert r.callgraph is not None
        ev = "GLOBAL_POWER_EVENTS"
        assert r.callgraph.recorder.self_samples
        assert r.callgraph.cross_layer_arcs(ev)

    @pytest.mark.parametrize("bench", ["fop", "ps"])
    def test_callgraph_self_samples_equal_report_rows(self, bench, tmp_path):
        """Every sample the engine charges to a truth label is on that
        label's report row, under the event whose counter took it."""
        r = viprof_profile(
            by_name(bench), period=20_000, time_scale=0.3, seed=7,
            session_dir=tmp_path, record_callgraph=True,
        )
        assert r.buffer_lost == 0
        report = r.viprof_report().report
        rows = {
            (row.image, row.symbol, e): row.count(e)
            for row in report.sorted_rows()
            for e in report.events
            if row.count(e)
        }
        truth = {
            (image, symbol, e): n
            for (image, symbol), per_event in (
                r.callgraph.recorder.self_samples.items()
            )
            for e, n in per_event.items()
        }
        assert set(report.events) == {
            "GLOBAL_POWER_EVENTS", "BSQ_CACHE_REFERENCE"
        }
        assert truth == rows

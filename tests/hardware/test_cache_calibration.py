"""Calibration of the statistical cache model against the detailed
simulator.

The engine's default (statistical) model must agree with the real
set-associative simulator on the *regimes* that drive BSQ_CACHE_REFERENCE
sampling: working sets that fit the L2 miss rarely; working sets several
times the L2 miss heavily; locality moves the rate in the right direction
and by a comparable magnitude.
"""

import pytest

from repro.hardware.cache import CacheGeometry, StatisticalCacheModel
from repro.hardware.memory import WorkingSet
from tests.hardware.reference_cache import AddressStreamer, SetAssociativeCache

GEOMETRY = CacheGeometry(size_bytes=1 << 16, line_bytes=64, associativity=8)
N_ACCESSES = 30_000
WARMUP = 10_000


def detailed_rate(ws: WorkingSet) -> float:
    cache = SetAssociativeCache(GEOMETRY)
    streamer = AddressStreamer(ws)
    cache.access_stream(streamer.stream(WARMUP))  # warm the cache
    h0, m0 = cache.hits, cache.misses
    cache.access_stream(streamer.stream(N_ACCESSES))
    return (cache.misses - m0) / N_ACCESSES


def statistical_rate(ws: WorkingSet) -> float:
    model = StatisticalCacheModel(GEOMETRY, seed=5)
    return model.misses_for(ws, N_ACCESSES) / N_ACCESSES


class TestCalibration:
    def test_fitting_working_set_both_near_zero(self):
        ws_args = dict(base=0, size=GEOMETRY.size_bytes // 4, locality=0.8)
        d = detailed_rate(WorkingSet(seed=1, **ws_args))
        s = statistical_rate(WorkingSet(seed=1, **ws_args))
        assert d < 0.03
        assert s < 0.03

    def test_thrashing_working_set_both_high(self):
        ws_args = dict(
            base=0, size=GEOMETRY.size_bytes * 16, locality=0.2,
            hot_fraction=0.02,
        )
        d = detailed_rate(WorkingSet(seed=2, **ws_args))
        s = statistical_rate(WorkingSet(seed=2, **ws_args))
        assert d > 0.4
        assert s > 0.4
        assert s == pytest.approx(d, abs=0.22)

    def test_locality_direction_agrees(self):
        """Raising locality must lower the rate in both models."""
        size = GEOMETRY.size_bytes * 8
        d_lo = detailed_rate(WorkingSet(base=0, size=size, locality=0.2, seed=3))
        d_hi = detailed_rate(WorkingSet(base=0, size=size, locality=0.9, seed=3))
        s_lo = statistical_rate(WorkingSet(base=0, size=size, locality=0.2, seed=3))
        s_hi = statistical_rate(WorkingSet(base=0, size=size, locality=0.9, seed=3))
        assert d_hi < d_lo
        assert s_hi < s_lo

    def test_size_direction_agrees(self):
        """Growing the working set must raise the rate in both models."""
        loc = 0.5
        d_small = detailed_rate(
            WorkingSet(base=0, size=GEOMETRY.size_bytes * 2, locality=loc, seed=4)
        )
        d_big = detailed_rate(
            WorkingSet(base=0, size=GEOMETRY.size_bytes * 32, locality=loc, seed=4)
        )
        s_small = statistical_rate(
            WorkingSet(base=0, size=GEOMETRY.size_bytes * 2, locality=loc, seed=4)
        )
        s_big = statistical_rate(
            WorkingSet(base=0, size=GEOMETRY.size_bytes * 32, locality=loc, seed=4)
        )
        assert d_big > d_small
        assert s_big > s_small

    @pytest.mark.parametrize("mult,loc", [(4, 0.3), (8, 0.5), (16, 0.7)])
    def test_midrange_rates_within_band(self, mult, loc):
        """In the regimes the benchmarks actually occupy, the two models
        agree within a generous but meaningful band."""
        ws_args = dict(base=0, size=GEOMETRY.size_bytes * mult, locality=loc)
        d = detailed_rate(WorkingSet(seed=6, **ws_args))
        s = statistical_rate(WorkingSet(seed=6, **ws_args))
        assert s == pytest.approx(d, abs=0.25)

"""Unit tests for the cache models."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hardware.cache import CacheGeometry, StatisticalCacheModel
from repro.hardware.memory import WorkingSet
from tests.hardware.reference_cache import AddressStream, SetAssociativeCache


def small_geometry():
    # 8 KB, 64 B lines, 2-way => 64 sets
    return CacheGeometry(size_bytes=8192, line_bytes=64, associativity=2)


class TestCacheGeometry:
    def test_paper_l2_is_1mb_8way(self):
        g = CacheGeometry.paper_l2()
        assert g.size_bytes == 1 << 20
        assert g.associativity == 8
        assert g.num_sets * g.line_bytes * g.associativity == g.size_bytes

    def test_non_pow2_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=3000)

    def test_non_pow2_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=4096, line_bytes=48)

    def test_cache_smaller_than_one_set_rejected(self):
        with pytest.raises(ConfigError):
            CacheGeometry(size_bytes=64, line_bytes=64, associativity=2)


class TestSetAssociativeCache:
    def test_first_access_misses_second_hits(self):
        c = SetAssociativeCache(small_geometry())
        assert c.access(0x1000) is False
        assert c.access(0x1000) is True
        assert c.access(0x103F) is True  # same 64B line

    def test_adjacent_line_misses(self):
        c = SetAssociativeCache(small_geometry())
        c.access(0x1000)
        assert c.access(0x1040) is False

    def test_lru_eviction_within_set(self):
        g = small_geometry()  # 2-way, 64 sets => same set every 64*64=4096 bytes
        c = SetAssociativeCache(g)
        a, b, d = 0x0, 0x1000, 0x2000  # all map to set 0
        c.access(a)
        c.access(b)
        c.access(a)  # refresh a; b is now LRU
        c.access(d)  # evicts b
        assert c.resident(a)
        assert not c.resident(b)
        assert c.resident(d)

    def test_stats_accumulate(self):
        c = SetAssociativeCache(small_geometry())
        c.access(0x0)
        c.access(0x0)
        assert c.hits == 1 and c.misses == 1 and c.accesses == 2

    def test_reset(self):
        c = SetAssociativeCache(small_geometry())
        c.access(0x0)
        c.reset()
        assert c.accesses == 0
        assert not c.resident(0x0)

    def test_access_stream_counts(self):
        c = SetAssociativeCache(small_geometry())
        addrs = np.array([0, 0, 64, 64, 128], dtype=np.int64)
        hits, misses = c.access_stream(AddressStream(addrs, 0))
        assert hits == 2 and misses == 3

    def test_working_set_fitting_in_cache_eventually_all_hits(self):
        g = small_geometry()
        c = SetAssociativeCache(g)
        lines = [i * 64 for i in range(g.size_bytes // 64 // 2)]  # half-fill
        for a in lines:
            c.access(a)
        h0 = c.hits
        for a in lines:
            assert c.access(a) is True
        assert c.hits == h0 + len(lines)


class TestStatisticalCacheModel:
    def test_zero_accesses_zero_misses(self):
        m = StatisticalCacheModel(CacheGeometry.paper_l2())
        ws = WorkingSet(base=0, size=1 << 22, seed=1)
        assert m.misses_for(ws, 0) == 0

    def test_negative_accesses_rejected(self):
        m = StatisticalCacheModel(CacheGeometry.paper_l2())
        ws = WorkingSet(base=0, size=1 << 22, seed=1)
        with pytest.raises(ConfigError):
            m.misses_for(ws, -1)

    def test_misses_bounded_by_accesses(self):
        m = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=4)
        ws = WorkingSet(base=0, size=1 << 26, locality=0.1, seed=2)
        n = 10_000
        misses = m.misses_for(ws, n)
        assert 0 <= misses <= n

    def test_small_working_set_has_low_miss_rate(self):
        m = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=4)
        small = WorkingSet(base=0, size=64 * 1024, seed=3)
        misses = m.misses_for(small, 100_000)
        assert misses / 100_000 < 0.02

    def test_huge_working_set_has_high_miss_rate(self):
        m = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=4)
        big = WorkingSet(base=0, size=1 << 27, locality=0.2, seed=5)
        misses = m.misses_for(big, 100_000)
        assert misses / 100_000 > 0.3

    def test_deterministic_per_model_seed_and_working_set(self):
        ws = WorkingSet(base=0, size=1 << 24, locality=0.5, seed=9)
        m1 = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=7)
        m2 = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=7)
        seq1 = [m1.misses_for(ws, 1000) for _ in range(5)]
        seq2 = [m2.misses_for(ws, 1000) for _ in range(5)]
        assert seq1 == seq2

    def test_different_model_seeds_differ(self):
        ws = WorkingSet(base=0, size=1 << 25, locality=0.4, seed=9)
        m1 = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=7)
        m2 = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=8)
        seq1 = [m1.misses_for(ws, 2000) for _ in range(8)]
        seq2 = [m2.misses_for(ws, 2000) for _ in range(8)]
        assert seq1 != seq2

    def test_stats_accumulate(self):
        m = StatisticalCacheModel(CacheGeometry.paper_l2(), seed=4)
        ws = WorkingSet(base=0, size=1 << 24, seed=6)
        m.misses_for(ws, 500)
        assert m.accesses == 500
        assert m.hits + m.misses == 500

"""Unit tests for working sets and the reference address streams over
them."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.hardware.memory import WorkingSet
from tests.hardware.reference_cache import AddressStreamer


class TestWorkingSet:
    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkingSet(base=0, size=0)
        with pytest.raises(ConfigError):
            WorkingSet(base=0, size=100, locality=1.5)
        with pytest.raises(ConfigError):
            WorkingSet(base=0, size=100, hot_fraction=0.0)

    def test_stream_length(self):
        ws = WorkingSet(base=0x1000, size=1 << 16, seed=1)
        s = AddressStreamer(ws).stream(100)
        assert len(s) == 100

    def test_stream_addresses_within_bounds(self):
        ws = WorkingSet(base=0x1000, size=1 << 16, seed=1)
        s = AddressStreamer(ws).stream(500)
        assert (s.addresses >= 0x1000).all()
        assert (s.addresses < 0x1000 + (1 << 16) + 64).all()

    def test_stream_positive_count_required(self):
        ws = WorkingSet(base=0, size=1024, seed=1)
        with pytest.raises(ConfigError):
            AddressStreamer(ws).stream(0)

    def test_full_locality_is_sequential_over_hot_region(self):
        ws = WorkingSet(base=0, size=1 << 16, locality=1.0, hot_fraction=0.5, seed=1)
        s = AddressStreamer(ws).stream(8, line=64)
        diffs = np.diff(s.addresses)
        assert (diffs == 64).all()

    def test_sequential_cursor_persists_across_streams(self):
        ws = WorkingSet(base=0, size=1 << 16, locality=1.0, seed=1)
        streamer = AddressStreamer(ws)
        a = streamer.stream(4, line=64).addresses
        b = streamer.stream(4, line=64).addresses
        assert b[0] == a[-1] + 64

    def test_zero_locality_is_uniform(self):
        ws = WorkingSet(base=0, size=1 << 20, locality=0.0, seed=1)
        s = AddressStreamer(ws).stream(2000)
        # Uniform draws should span most of the region.
        assert s.addresses.max() - s.addresses.min() > (1 << 19)

    def test_ws_ids_unique(self):
        a = WorkingSet(base=0, size=1024, seed=1)
        b = WorkingSet(base=0, size=1024, seed=1)
        assert a.ws_id != b.ws_id

    def test_deterministic_streams_for_same_seed(self):
        a = WorkingSet(base=0, size=1 << 18, locality=0.5, seed=42)
        b = WorkingSet(base=0, size=1 << 18, locality=0.5, seed=42)
        assert (
            AddressStreamer(a).stream(64).addresses
            == AddressStreamer(b).stream(64).addresses
        ).all()


class TestExpectedMissRate:
    def test_fits_in_cache_low_rate(self):
        ws = WorkingSet(base=0, size=256 * 1024, seed=1)
        assert ws.expected_miss_rate(1 << 20) <= 0.01

    def test_exceeds_cache_higher_rate(self):
        small = WorkingSet(base=0, size=256 * 1024, locality=0.5, seed=1)
        big = WorkingSet(base=0, size=64 << 20, locality=0.5, seed=1)
        cache = 1 << 20
        assert big.expected_miss_rate(cache) > small.expected_miss_rate(cache)

    def test_locality_reduces_rate(self):
        tight = WorkingSet(base=0, size=64 << 20, locality=0.95, seed=1)
        loose = WorkingSet(base=0, size=64 << 20, locality=0.1, seed=1)
        cache = 1 << 20
        assert tight.expected_miss_rate(cache) < loose.expected_miss_rate(cache)

    def test_rate_in_unit_interval(self):
        for size in (1024, 1 << 20, 1 << 28):
            for loc in (0.0, 0.5, 1.0):
                ws = WorkingSet(base=0, size=size, locality=loc, seed=1)
                r = ws.expected_miss_rate(1 << 20)
                assert 0.0 <= r <= 1.0

    def test_bad_cache_size_rejected(self):
        ws = WorkingSet(base=0, size=1024, seed=1)
        with pytest.raises(ConfigError):
            ws.expected_miss_rate(0)

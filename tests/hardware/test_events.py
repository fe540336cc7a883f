"""Unit tests for hardware event definitions and EventCounts validation
and split arithmetic."""

import pytest

from repro.errors import ConfigError
from repro.hardware.events import (
    EVENTS,
    BSQ_CACHE_REFERENCE,
    GLOBAL_POWER_EVENTS,
    EventCounts,
    event_by_name,
)


class TestEventRegistry:
    def test_registry_contains_paper_events(self):
        assert "GLOBAL_POWER_EVENTS" in EVENTS
        assert "BSQ_CACHE_REFERENCE" in EVENTS

    def test_event_by_name_roundtrip(self):
        for name, event in EVENTS.items():
            assert event_by_name(name) is event

    def test_event_by_name_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown hardware event"):
            event_by_name("NOT_AN_EVENT")

    def test_event_codes_are_unique(self):
        codes = [e.code for e in EVENTS.values()]
        assert len(codes) == len(set(codes))

    def test_counts_fields_exist_on_eventcounts(self):
        counts = EventCounts()
        for e in EVENTS.values():
            assert hasattr(counts, e.counts_field)

    def test_validate_period_rejects_below_minimum(self):
        with pytest.raises(ConfigError, match="below minimum"):
            GLOBAL_POWER_EVENTS.validate_period(10)

    def test_validate_period_accepts_minimum(self):
        GLOBAL_POWER_EVENTS.validate_period(GLOBAL_POWER_EVENTS.min_period)

    def test_cache_event_counts_misses(self):
        assert BSQ_CACHE_REFERENCE.counts_field == "l2_misses"


class TestEventCounts:
    def test_defaults_are_zero(self):
        c = EventCounts()
        assert c.cycles == 0 and c.l2_misses == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError, match="negative"):
            EventCounts(cycles=-1)

    @pytest.mark.parametrize("name", EventCounts.__slots__)
    def test_every_negative_field_is_named(self, name):
        with pytest.raises(ConfigError, match=f"^negative event count {name}=-2$"):
            EventCounts(**{name: -2})

    def test_scaled_floor_division(self):
        c = EventCounts(cycles=10, instructions=7)
        half = c.scaled(1, 2)
        assert half.cycles == 5 and half.instructions == 3

    def test_scaled_zero_denominator_rejected(self):
        with pytest.raises(ConfigError):
            EventCounts(cycles=1).scaled(1, 0)

    def test_minus_clamps_at_zero(self):
        a = EventCounts(cycles=5)
        b = EventCounts(cycles=9, branches=1)
        d = a.minus(b)
        assert d.cycles == 0 and d.branches == 0

    def test_scaled_plus_remainder_conserves_totals(self):
        c = EventCounts(
            cycles=997, instructions=613, l2_references=101, l2_misses=13,
            branches=77, branch_mispredicts=3, itlb_misses=2,
        )
        pre = c.scaled(311, 997)
        post = c.minus(pre)
        for name in EventCounts.__slots__:
            assert getattr(pre, name) + getattr(post, name) == getattr(c, name)

"""Unit + randomized tests for the packed interval table, against a
linear scan over the same disjoint spans."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.os.intervals import PackedIntervalTable


def linear_scan(spans, point):
    """Row index of the span covering ``point``, or -1: the oracle."""
    for i, (start, end) in enumerate(spans):
        if start <= point < end:
            return i
    return -1


def packed(spans):
    return PackedIntervalTable(
        [s for s, _ in spans], [e for _, e in spans]
    )


class TestStab:
    def test_disjoint_lookup(self):
        table = packed([(0x1000, 0x1100), (0x2000, 0x2200)])
        assert table.first_covering(0x1000) == 0
        assert table.first_covering(0x10FF) == 0
        assert table.first_covering(0x1100) == -1
        assert table.first_covering(0x2100) == 1
        assert table.first_covering(0) == -1
        assert table.first_covering(0x9999_9999) == -1

    def test_empty_index(self):
        table = packed([])
        assert len(table) == 0
        assert table.first_covering(0) == -1


class TestFirstCoveringMany:
    """The packed table's run lookup (every code map's ``lookup_run``)
    against a per-point linear scan."""

    def build(self, spans):
        return packed(spans), spans

    def per_point(self, spans, points):
        return [linear_scan(spans, p) for p in points]

    def test_matches_scalar_on_sorted_points(self):
        table, spans = self.build([(0x1000, 0x1100), (0x2000, 0x2200)])
        points = [0, 0x1000, 0x10FF, 0x1100, 0x2100, 0x9999]
        assert table.first_covering_many(points) == self.per_point(
            spans, points
        )

    def test_rejects_unsorted_points(self):
        table, _ = self.build([(0, 10)])
        with pytest.raises(ConfigError):
            table.first_covering_many([5, 3])

    def test_empty_inputs(self):
        assert self.build([])[0].first_covering_many([1, 2]) == [-1, -1]
        assert self.build([(0, 10)])[0].first_covering_many([]) == []

    @pytest.mark.parametrize("seed", [2, 17, 41])
    def test_randomized_matches_scalar(self, seed):
        # Touching neighbours included: the run shortcut must move on to
        # the next row exactly at the boundary.
        rng = random.Random(seed)
        spans, cursor = [], 0
        for _ in range(100):
            start = cursor + rng.choice((0, rng.randrange(1, 40)))
            cursor = start + rng.randrange(1, 150)
            spans.append((start, cursor))
        table, spans = self.build(spans)
        points = sorted(rng.randrange(-10, cursor + 50) for _ in range(500))
        assert table.first_covering_many(points) == self.per_point(
            spans, points
        )


# A disjoint layout as (gap, size) segments laid out left to right —
# by construction sorted and non-overlapping, which is exactly the
# precondition PackedIntervalTable's single-probe bisect relies on.
SEGMENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),  # gap before the range
        st.integers(min_value=1, max_value=120),  # range size
    ),
    max_size=40,
)


def lay_out(segments):
    """Turn (gap, size) segments into sorted disjoint [start, end) pairs."""
    spans = []
    cursor = 0
    for gap, size in segments:
        start = cursor + gap
        spans.append((start, start + size))
        cursor = start + size
    return spans


class TestPackedIntervalTable:
    """The packed table must agree with a linear scan over any disjoint
    layout, whatever integer columns hold it."""

    def build(self, spans):
        table = PackedIntervalTable(
            array("q", (s for s, _ in spans)),
            array("q", (e for _, e in spans)),
        )
        return table, spans

    @given(segments=SEGMENTS, probes=st.lists(
        st.integers(min_value=-50, max_value=8000), max_size=80
    ))
    @settings(max_examples=80, deadline=None)
    def test_scalar_matches_object_index(self, segments, probes):
        table, spans = self.build(lay_out(segments))
        for p in probes:
            assert table.first_covering(p) == linear_scan(spans, p)

    @given(segments=SEGMENTS, probes=st.lists(
        st.integers(min_value=-50, max_value=8000), max_size=80
    ))
    @settings(max_examples=80, deadline=None)
    def test_run_matches_scalar(self, segments, probes):
        table, spans = self.build(lay_out(segments))
        points = sorted(probes)
        assert table.first_covering_many(points) == [
            linear_scan(spans, p) for p in points
        ]

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ConfigError):
            PackedIntervalTable([0, 10], [5])

    def test_rejects_unsorted_points(self):
        table = PackedIntervalTable([0], [10])
        with pytest.raises(ConfigError):
            table.first_covering_many([5, 3])

    def test_empty_table(self):
        table = PackedIntervalTable(array("q"), array("q"))
        assert len(table) == 0
        assert table.first_covering(0) == -1
        assert table.first_covering_many([1, 2]) == [-1, -1]

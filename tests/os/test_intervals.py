"""Unit + randomized tests for the shared interval index."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.os.intervals import Interval, IntervalIndex, PackedIntervalTable


def iv(start, end, payload=None):
    return Interval(start, end, payload)


class TestInterval:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Interval(10, 10, None)
        with pytest.raises(ConfigError):
            Interval(10, 5, None)

    def test_contains_half_open(self):
        r = iv(0x100, 0x200)
        assert r.contains(0x100)
        assert r.contains(0x1FF)
        assert not r.contains(0x200)
        assert not r.contains(0xFF)

    def test_overlaps(self):
        def overlap(a, b):
            return bool(IntervalIndex([a, b]).overlapping_pairs())

        assert overlap(iv(0, 10), iv(9, 20))
        assert not overlap(iv(0, 10), iv(10, 20))  # half-open: touching ok
        assert overlap(iv(5, 6), iv(0, 100))


class TestStab:
    def test_disjoint_lookup(self):
        idx = IntervalIndex(
            [iv(0x1000, 0x1100, "a"), iv(0x2000, 0x2200, "b")]
        )
        assert idx.first_covering(0x1000).payload == "a"
        assert idx.first_covering(0x10FF).payload == "a"
        assert idx.first_covering(0x1100) is None
        assert idx.first_covering(0x2100).payload == "b"
        assert idx.first_covering(0) is None
        assert idx.first_covering(0x9999_9999) is None

    def test_first_covering_prefers_greatest_start(self):
        idx = IntervalIndex([iv(0, 100, "wide"), iv(10, 20, "inner")])
        assert idx.first_covering(15).payload == "inner"
        assert idx.first_covering(30).payload == "wide"

    def test_nested_long_interval_found(self):
        # The long interval starts far left of the stab point; the
        # prefix-max-end walk must keep looking past nearer misses.
        idx = IntervalIndex(
            [iv(0, 1000, "long"), iv(100, 110, "x"), iv(200, 210, "y")]
        )
        assert idx.first_covering(500).payload == "long"

    def test_empty_index(self):
        idx = IntervalIndex([])
        assert idx.first_covering(0) is None
        assert idx.overlapping_pairs() == []


class TestOverlapDetection:
    def test_disjoint(self):
        idx = IntervalIndex([iv(0, 10), iv(10, 20), iv(30, 40)])
        assert idx.overlapping_pairs() == []

    def test_single_overlap(self):
        idx = IntervalIndex([iv(0, 10, "a"), iv(5, 15, "b")])
        pairs = idx.overlapping_pairs()
        assert len(pairs) == 1
        assert {pairs[0][0].payload, pairs[0][1].payload} == {"a", "b"}

    def test_all_pairs_reported(self):
        idx = IntervalIndex([iv(0, 100, "a"), iv(10, 20, "b"), iv(15, 30, "c")])
        got = {
            frozenset((a.payload, b.payload))
            for a, b in idx.overlapping_pairs()
        }
        assert got == {
            frozenset(("a", "b")),
            frozenset(("a", "c")),
            frozenset(("b", "c")),
        }


class TestFirstCoveringMany:
    """The packed table's run lookup (every code map's ``lookup_run``)
    against per-point :meth:`IntervalIndex.first_covering`."""

    def build(self, spans):
        table = PackedIntervalTable(
            [s for s, _ in spans], [e for _, e in spans]
        )
        idx = IntervalIndex(
            [Interval(s, e, i) for i, (s, e) in enumerate(spans)]
        )
        return table, idx

    def per_point(self, idx, points):
        hits = [idx.first_covering(p) for p in points]
        return [-1 if h is None else h.payload for h in hits]

    def test_matches_scalar_on_sorted_points(self):
        table, idx = self.build([(0x1000, 0x1100), (0x2000, 0x2200)])
        points = [0, 0x1000, 0x10FF, 0x1100, 0x2100, 0x9999]
        assert table.first_covering_many(points) == self.per_point(
            idx, points
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
        table, idx = self.build(spans)
        points = sorted(rng.randrange(-10, cursor + 50) for _ in range(500))
        assert table.first_covering_many(points) == self.per_point(
            idx, points
        )


class TestRandomizedAgainstBruteForce:
    @pytest.mark.parametrize("seed", [1, 7, 23, 99])
    def test_stab_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        intervals = []
        for i in range(120):
            start = rng.randrange(0, 5000)
            size = rng.randrange(1, 200)
            intervals.append(iv(start, start + size, i))
        idx = IntervalIndex(intervals)
        for _ in range(300):
            point = rng.randrange(-10, 5300)
            expect = sorted(
                (i for i in intervals if i.contains(point)),
                key=lambda i: (i.start, i.end),
            )
            first = idx.first_covering(point)
            if expect:
                assert first == expect[-1]
            else:
                assert first is None

    @pytest.mark.parametrize("seed", [3, 11])
    def test_overlap_pairs_match_quadratic_check(self, seed):
        rng = random.Random(seed)
        intervals = []
        for i in range(60):
            start = rng.randrange(0, 2000)
            intervals.append(iv(start, start + rng.randrange(1, 100), i))
        idx = IntervalIndex(intervals)
        expect = set()
        for i, a in enumerate(intervals):
            for b in intervals[i + 1:]:
                if a.start < b.end and b.start < a.end:
                    expect.add(frozenset((a.payload, b.payload)))
        got = {
            frozenset((a.payload, b.payload))
            for a, b in idx.overlapping_pairs()
        }
        assert got == expect


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
    """The packed table must be position-identical to IntervalIndex over
    any disjoint layout — every code map's stand-in for it."""

    def build(self, spans):
        table = PackedIntervalTable(
            array("q", (s for s, _ in spans)),
            array("q", (e for _, e in spans)),
        )
        idx = IntervalIndex(
            [Interval(s, e, i) for i, (s, e) in enumerate(spans)]
        )
        return table, idx

    @given(segments=SEGMENTS, probes=st.lists(
        st.integers(min_value=-50, max_value=8000), max_size=80
    ))
    @settings(max_examples=80, deadline=None)
    def test_scalar_matches_object_index(self, segments, probes):
        table, idx = self.build(lay_out(segments))
        for p in probes:
            hit = idx.first_covering(p)
            row = table.first_covering(p)
            if hit is None:
                assert row == -1
            else:
                assert row == hit.payload

    @given(segments=SEGMENTS, probes=st.lists(
        st.integers(min_value=-50, max_value=8000), max_size=80
    ))
    @settings(max_examples=80, deadline=None)
    def test_run_matches_scalar(self, segments, probes):
        table, idx = self.build(lay_out(segments))
        points = sorted(probes)
        hits = [idx.first_covering(p) for p in points]
        assert table.first_covering_many(points) == [
            -1 if hit is None else hit.payload for hit in hits
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

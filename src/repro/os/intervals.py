"""Half-open integer interval lookups: "which record covers this address?"

Two structures answer it over sets of ``[start, end)`` ranges:

* :class:`PackedIntervalTable` — two sorted integer columns of ranges
  proven **disjoint** before they are packed; every epoch code map
  (:mod:`repro.viprof.codemap`, text-parsed or arena-backed) looks
  addresses up through it with one bisect.
* :class:`IntervalIndex` — tolerant of overlapping input, for the static
  artifact analyzer (:mod:`repro.statcheck`), which must *detect*
  overlaps inside artifacts it cannot trust to be well-formed: it
  answers covering queries via a sorted-start array plus a prefix-maximum
  of ends (a flattened static interval tree) and reports every
  overlapping pair so each can become a lint finding.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Generic, Iterable, TypeVar

from repro.errors import ConfigError

__all__ = ["Interval", "IntervalIndex", "PackedIntervalTable"]

P = TypeVar("P")


@dataclass(frozen=True, slots=True)
class Interval(Generic[P]):
    """A half-open range ``[start, end)`` carrying an arbitrary payload."""

    start: int
    end: int
    payload: P

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ConfigError(
                f"empty interval [{self.start:#x}, {self.end:#x})"
            )

    def contains(self, point: int) -> bool:
        return self.start <= point < self.end


class IntervalIndex(Generic[P]):
    """Static index over intervals; tolerant of overlapping input.

    Lookup strategy: intervals are kept sorted by ``start``.  For a point
    query we bisect to the rightmost interval starting at or before the
    point, then walk left while the *prefix maximum end* promises that an
    earlier interval could still reach the point.  For non-overlapping
    data this degenerates to the classic single-probe binary search.
    """

    def __init__(self, intervals: Iterable[Interval[P]]) -> None:
        self._intervals = sorted(
            intervals, key=lambda iv: (iv.start, iv.end)
        )
        self._starts = [iv.start for iv in self._intervals]
        self._prefix_max_end: list[int] = []
        running = 0
        for iv in self._intervals:
            running = max(running, iv.end)
            self._prefix_max_end.append(running)

    def first_covering(self, point: int) -> Interval[P] | None:
        """The covering interval with the greatest start, or None.

        For non-overlapping data (code maps, VMAs) this is *the* covering
        interval, found with one bisect probe.
        """
        i = bisect.bisect_right(self._starts, point) - 1
        while i >= 0 and self._prefix_max_end[i] > point:
            if self._intervals[i].contains(point):
                return self._intervals[i]
            i -= 1
        return None

    # ------------------------------------------------------------------
    # Overlap detection
    # ------------------------------------------------------------------

    def overlapping_pairs(self) -> list[tuple[Interval[P], Interval[P]]]:
        """Every pair of overlapping intervals (sweep over sorted starts)."""
        pairs: list[tuple[Interval[P], Interval[P]]] = []
        active: list[Interval[P]] = []
        for iv in self._intervals:
            active = [a for a in active if a.end > iv.start]
            for a in active:
                pairs.append((a, iv))
            active.append(iv)
        return pairs


class PackedIntervalTable:
    """Stabbing queries over **disjoint** ``[start, end)`` ranges stored as
    two parallel sorted integer columns — no :class:`Interval` objects.

    This is the counterpart of :class:`IntervalIndex` for data whose
    well-formedness was proven before packing (a code map rejects
    overlapping records at load, and the arena packs only maps that
    loaded), so the prefix-maximum walk degenerates to a single probe.
    The columns may be any sorted integer sequences — ``list``,
    ``array('q')``, or a ``memoryview`` cast over an ``mmap`` — which is
    what lets every shard worker bisect the same on-disk page cache
    without materializing anything.

    Queries return **row indices** (``-1`` for no cover) instead of
    payloads; the caller owns row→record materialization, so rows that
    never reach a report are never built.  Result positions are identical
    to :meth:`IntervalIndex.first_covering` over the same ranges
    (property-tested in ``tests/os/test_intervals.py``).
    """

    __slots__ = ("_starts", "_ends", "_n")

    def __init__(self, starts, ends) -> None:
        if len(starts) != len(ends):
            raise ConfigError(
                f"packed table columns disagree: {len(starts)} starts "
                f"vs {len(ends)} ends"
            )
        self._starts = starts
        self._ends = ends
        self._n = len(starts)

    def __len__(self) -> int:
        return self._n

    def first_covering(self, point: int) -> int:
        """Row index of the interval covering ``point``, or ``-1``.

        Disjoint + sorted means the only candidate is the rightmost row
        starting at or before the point — one bisect, no leftward walk.
        """
        i = bisect.bisect_right(self._starts, point) - 1
        if i >= 0 and point < self._ends[i]:
            return i
        return -1

    def first_covering_many(self, points: Iterable[int]) -> list[int]:
        """:meth:`first_covering` over an **ascending** run of points.

        Consecutive sorted PCs tend to land in one method body, so the
        previous row is re-tested before paying another bisect.  Results
        are positionally aligned with the input.
        """
        starts = self._starts
        ends = self._ends
        n = self._n
        out: list[int] = []
        last = -1
        prev: int | None = None
        for p in points:
            if prev is not None and p < prev:
                raise ConfigError(
                    f"first_covering_many needs ascending points "
                    f"({p:#x} after {prev:#x})"
                )
            prev = p
            # Disjoint rows: re-using the last hit cannot skip a
            # later-starting row unless that row has already reached p.
            if (
                last >= 0
                and starts[last] <= p < ends[last]
                and (last + 1 >= n or starts[last + 1] > p)
            ):
                out.append(last)
                continue
            i = bisect.bisect_right(starts, p) - 1
            last = i if (i >= 0 and p < ends[i]) else -1
            out.append(last)
        return out

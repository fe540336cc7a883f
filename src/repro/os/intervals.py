"""Half-open integer interval lookups: "which record covers this address?"

:class:`PackedIntervalTable` answers it over ``[start, end)`` ranges
proven **disjoint** before they are packed, stored as two sorted integer
columns; every epoch code map (:mod:`repro.viprof.codemap`, text-parsed
or arena-backed) looks addresses up through it with one bisect.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.errors import ConfigError

__all__ = ["PackedIntervalTable"]


class PackedIntervalTable:
    """Stabbing queries over **disjoint** ``[start, end)`` ranges stored as
    two parallel sorted integer columns.

    The ranges' well-formedness is proven before packing (a code map
    rejects overlapping records at load, and the arena packs only maps
    that loaded), so the only candidate for a point is the rightmost
    range starting at or before it: a single probe.  The columns may be
    any sorted integer sequences — ``list``, ``array('q')``, or a
    ``memoryview`` cast over an ``mmap`` — which is what lets every shard
    worker bisect the same on-disk page cache without materializing
    anything.

    Queries return **row indices** (``-1`` for no cover) instead of
    payloads; the caller owns row→record materialization, so rows that
    never reach a report are never built.  Results equal a linear scan
    over the same ranges (property-tested in
    ``tests/os/test_intervals.py``).
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

"""Profile aggregation and opreport-style tables.

The paper's Figure 1 is an ``opreport --symbols``-style listing with one row
per (image, symbol) and one percentage column per profiled event — for the
case study, time (GLOBAL_POWER_EVENTS) and L2 data misses
(BSQ_CACHE_REFERENCE).  :func:`build_report` aggregates resolved samples into
that shape and :meth:`ProfileReport.format_table` renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.profiling.model import ResolvedSample

__all__ = ["SymbolRow", "ProfileReport", "StreamingAggregator", "build_report"]


@dataclass
class SymbolRow:
    """Aggregated samples for one (image, symbol) pair."""

    image: str
    symbol: str
    counts: dict[str, int] = field(default_factory=dict)

    def count(self, event: str) -> int:
        return self.counts.get(event, 0)

    def add(self, event: str, n: int = 1) -> None:
        self.counts[event] = self.counts.get(event, 0) + n


@dataclass
class ProfileReport:
    """A full profile: rows plus per-event totals.

    ``events`` fixes column order; the first event is the primary sort key
    (descending), matching opreport's behaviour.
    """

    events: tuple[str, ...]
    rows: list[SymbolRow]
    totals: dict[str, int]

    def sorted_rows(self) -> list[SymbolRow]:
        primary = self.events[0]
        return sorted(
            self.rows,
            key=lambda r: tuple(-r.count(e) for e in (primary, *self.events[1:])),
        )

    def percent(self, row: SymbolRow, event: str) -> float:
        total = self.totals.get(event, 0)
        return 100.0 * row.count(event) / total if total else 0.0

    def row_for(self, image: str, symbol: str) -> SymbolRow | None:
        for r in self.rows:
            if r.image == image and r.symbol == symbol:
                return r
        return None

    def image_share(self, image: str, event: str | None = None) -> float:
        """Fraction (0..1) of an event's samples attributed to ``image``."""
        ev = event or self.events[0]
        total = self.totals.get(ev, 0)
        if not total:
            return 0.0
        return sum(r.count(ev) for r in self.rows if r.image == image) / total

    def format_table(
        self, limit: int | None = None, column_labels: dict[str, str] | None = None
    ) -> str:
        """Render the Figure-1-style listing.

        Args:
            limit: show at most this many rows.
            column_labels: optional event -> short header (defaults to
                ``Time %`` for the first column, ``Dmiss %`` for a cache-miss
                event, else the event name).
        """
        labels = []
        for e in self.events:
            if column_labels and e in column_labels:
                labels.append(column_labels[e])
            elif e == "GLOBAL_POWER_EVENTS":
                labels.append("Time %")
            elif "CACHE" in e:
                labels.append("Dmiss %")
            else:
                labels.append(f"{e} %")
        header = "  ".join(f"{lbl:>8}" for lbl in labels)
        header += "  {:<24}  {}".format("Image name", "Symbol name")
        lines = [header]
        rows = self.sorted_rows()
        if limit is not None:
            rows = rows[:limit]
        for r in rows:
            cells = "  ".join(f"{self.percent(r, e):8.4f}" for e in self.events)
            lines.append(f"{cells}  {r.image:<24}  {r.symbol}")
        return "\n".join(lines)


class StreamingAggregator:
    """Single-pass, constant-memory aggregation of resolved samples.

    State is one :class:`SymbolRow` per distinct (image, symbol) pair plus
    per-event totals — independent of the number of samples consumed, so a
    session of any size aggregates in constant memory.  This is the *only*
    aggregation implementation in the tree: :func:`build_report` and the
    streaming pipeline (:mod:`repro.pipeline`) both run through it.

    ``events`` fixes the column order and drops samples for other events
    (matching opreport's event selection); None accepts every event in
    first-seen order.
    """

    def __init__(self, events: tuple[str, ...] | None = None) -> None:
        self._fixed_events = events
        self._rows: dict[tuple[str, str], SymbolRow] = {}
        self._totals: dict[str, int] = (
            {e: 0 for e in events} if events is not None else {}
        )
        self.samples_seen = 0

    def add_counts(
        self, event: str, image: str, symbol: str, n: int = 1
    ) -> None:
        """Fold ``n`` samples attributed to (image, symbol) under one
        event — the object-free fast path the pipeline uses once per
        distinct resolution key, and the primitive :meth:`add` and
        :meth:`merge` are built on."""
        self.samples_seen += n
        if self._fixed_events is not None and event not in self._totals:
            return
        key = (image, symbol)
        row = self._rows.get(key)
        if row is None:
            row = SymbolRow(image=image, symbol=symbol)
            self._rows[key] = row
        row.add(event, n)
        self._totals[event] = self._totals.get(event, 0) + n

    def add(self, sample: ResolvedSample) -> None:
        """Fold one resolved sample into the aggregate."""
        self.add_counts(sample.raw.event_name, sample.image, sample.symbol)

    def extend(self, samples: Iterable[ResolvedSample]) -> "StreamingAggregator":
        for s in samples:
            self.add(s)
        return self

    def merge(self, other: "StreamingAggregator") -> "StreamingAggregator":
        """Fold another aggregator (a later shard of the same stream) into
        this one, in place.

        Merging is *order-preserving*: the other aggregator's rows and
        events are appended in their first-seen order, so merging shard
        aggregates in shard order reproduces the sequential pass exactly —
        row insertion order (the sort tie-break) included.  Aggregating a
        concatenated stream and merging per-shard aggregates are therefore
        byte-identical (property-tested).
        """
        if other._fixed_events != self._fixed_events:
            from repro.errors import ProfilerError

            raise ProfilerError(
                f"cannot merge aggregators with different event selections: "
                f"{self._fixed_events!r} vs {other._fixed_events!r}"
            )
        # samples_seen also counts samples dropped by the event filter,
        # which add_counts would re-filter; account for the drops first.
        dropped = other.samples_seen - sum(other._totals.values())
        self.samples_seen += dropped
        # Seed unseen events from the other's totals *in its key order*,
        # which is its first-seen event order — row iteration below is
        # row-major and must not dictate event column order.
        for ev in other._totals:
            if ev not in self._totals:
                self._totals[ev] = 0
        for row in other._rows.values():
            for ev, n in row.counts.items():
                self.add_counts(ev, row.image, row.symbol, n)
        return self

    def report(self) -> ProfileReport:
        """Snapshot the aggregate as a :class:`ProfileReport`."""
        events = (
            self._fixed_events
            if self._fixed_events is not None
            else tuple(self._totals)
        )
        return ProfileReport(
            events=events,
            rows=list(self._rows.values()),
            totals=dict(self._totals),
        )


def build_report(
    samples: Iterable[ResolvedSample], events: tuple[str, ...] | None = None
) -> ProfileReport:
    """Aggregate resolved samples (possibly spanning several events) into a
    report.  ``events`` fixes the column order; by default events appear in
    first-seen order."""
    return StreamingAggregator(events).extend(samples).report()

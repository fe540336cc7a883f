"""The unified session-metrics model: :class:`SessionSummary`.

Every metrics producer in the tree — the streaming pipeline
(``run_pipeline`` / ``report --json``), the collection daemon and
salvage — emits the same versioned, mergeable shape:
per-(image, symbol) sample counts plus named **layer panels** of raw
counters (kernel/JIT/boot-image attribution, GC-epoch cost, daemon
overhead, salvage loss accounting).  One model means two runs
can always be *compared*: ``viprof analyze`` (:mod:`repro.metrics.analyze`)
aligns two summaries by (image, symbol) and by panel metric and computes
share deltas — the paper's whole point is that vertically integrated
profiles keep JIT methods' identities across runs even though their
addresses never repeat.

Design rules:

* **Panels hold raw counters only** (hit counts, cycle counts, byte
  counts) — never derived rates.  Raw counters merge by summation, so
  :meth:`SessionSummary.merge` is exact; rates (``kernel_pct``, ...)
  are derived at analysis time
  (:func:`repro.metrics.analyze.derived_metrics`).
* **Serialization is canonical**: :meth:`SessionSummary.to_canonical_json`
  sorts keys and fixes separators, so the same summary always produces
  the same bytes, and ``summary == SessionSummary.from_json(
  summary.to_canonical_json())`` round-trips exactly (property-tested in
  ``tests/metrics/test_model_roundtrip.py``).
* **Versioned**: every summary carries ``schema_version``; parsers reject
  versions they do not understand instead of misreading them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import AnalysisError

__all__ = [
    "SCHEMA_VERSION",
    "KIND_PROFILE",
    "KIND_COLLECTION",
    "KIND_ARTIFACTS",
    "SUMMARY_NAME",
    "SymbolEntry",
    "SessionSummary",
]

#: Version stamped into (and required from) every serialized summary.
SCHEMA_VERSION = 1

#: A resolved profile: symbol rows + resolution-side panels.
KIND_PROFILE = "profile"
#: Collection-side accounting a live session writes at teardown.
KIND_COLLECTION = "collection"
#: Derived offline from a session directory's artifacts alone.
KIND_ARTIFACTS = "artifacts"

_KINDS = (KIND_PROFILE, KIND_COLLECTION, KIND_ARTIFACTS)

#: File name a session's collection summary is stored under.
SUMMARY_NAME = "summary.json"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AnalysisError(f"malformed session summary: {msg}")


def _check_number(value: object, where: str) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AnalysisError(
            f"malformed session summary: {where} must be a number, "
            f"got {value!r}"
        )
    return value


@dataclass
class SymbolEntry:
    """Aggregated sample counts for one (image, symbol) pair."""

    image: str
    symbol: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def key(self) -> tuple[str, str]:
        return (self.image, self.symbol)

    def count(self, event: str) -> int:
        return self.counts.get(event, 0)

    def to_dict(self) -> dict[str, object]:
        return {
            "image": self.image,
            "symbol": self.symbol,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, d: object) -> "SymbolEntry":
        _require(isinstance(d, dict), f"symbol entry is not an object: {d!r}")
        image, symbol = d.get("image"), d.get("symbol")
        _require(
            isinstance(image, str) and isinstance(symbol, str),
            f"symbol entry needs string image/symbol: {d!r}",
        )
        counts = d.get("counts")
        _require(
            isinstance(counts, dict),
            f"symbol entry {image}:{symbol} has no counts object",
        )
        out: dict[str, int] = {}
        for ev, n in counts.items():
            _require(
                isinstance(ev, str)
                and isinstance(n, int)
                and not isinstance(n, bool),
                f"symbol entry {image}:{symbol} count {ev!r}={n!r} "
                "is not an integer",
            )
            out[ev] = n
        return cls(image=image, symbol=symbol, counts=out)


@dataclass
class SessionSummary:
    """One run's metrics, in the shape every producer emits.

    ``events`` fixes column order (first event is the primary, as in
    :class:`~repro.profiling.report.ProfileReport`); ``totals`` holds
    per-event sample totals; ``symbols`` the per-(image, symbol) counts
    in report order; ``panels`` maps a panel name to raw counters
    (``{"layers": {"kernel": 812, ...}}``); ``meta`` carries
    non-mergeable provenance (workload, seed, cpu_count, commit).
    """

    kind: str = KIND_PROFILE
    schema_version: int = SCHEMA_VERSION
    events: tuple[str, ...] = ()
    totals: dict[str, int] = field(default_factory=dict)
    symbols: list[SymbolEntry] = field(default_factory=list)
    panels: dict[str, dict[str, int | float]] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise AnalysisError(
                f"unknown summary kind {self.kind!r} (known: {_KINDS})"
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        """Samples across every event (the layer-share denominator)."""
        return sum(self.totals.values())

    def symbol_shares(self, event: str) -> dict[tuple[str, str], float]:
        """Percent share per (image, symbol) for one event (0..100)."""
        total = self.totals.get(event, 0)
        if not total:
            return {}
        return {
            e.key: 100.0 * e.count(event) / total
            for e in self.symbols
            if e.count(event)
        }

    def panel(self, name: str) -> dict[str, int | float]:
        return self.panels.get(name, {})

    # ------------------------------------------------------------------
    # merging (exact: panels/counts are raw counters)
    # ------------------------------------------------------------------

    def merge(self, other: "SessionSummary") -> "SessionSummary":
        """Fold another summary of the same kind into this one, in place.

        Counters (totals, symbol counts, panel metrics) are summed;
        events and symbols are appended in the other's first-seen order
        (mirroring :meth:`~repro.profiling.report.StreamingAggregator.
        merge`); ``meta`` keeps only entries both sides agree on.
        """
        if other.kind != self.kind:
            raise AnalysisError(
                f"cannot merge summary kind {other.kind!r} into {self.kind!r}"
            )
        if other.schema_version != self.schema_version:
            raise AnalysisError(
                f"cannot merge schema version {other.schema_version} "
                f"into {self.schema_version}"
            )
        for ev in other.events:
            if ev not in self.events:
                self.events = (*self.events, ev)
        for ev, n in other.totals.items():
            self.totals[ev] = self.totals.get(ev, 0) + n
        by_key = {e.key: e for e in self.symbols}
        for e in other.symbols:
            mine = by_key.get(e.key)
            if mine is None:
                mine = SymbolEntry(image=e.image, symbol=e.symbol)
                by_key[e.key] = mine
                self.symbols.append(mine)
            for ev, n in e.counts.items():
                mine.counts[ev] = mine.counts.get(ev, 0) + n
        for name, metrics in other.panels.items():
            panel = self.panels.setdefault(name, {})
            for k, v in metrics.items():
                panel[k] = panel.get(k, 0) + v
        self.meta = {
            k: v for k, v in self.meta.items()
            if k in other.meta and other.meta[k] == v
        }
        return self

    def __add__(self, other: "SessionSummary") -> "SessionSummary":
        out = SessionSummary(kind=self.kind, schema_version=self.schema_version)
        return out.merge(self).merge(other)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "events": list(self.events),
            "totals": dict(self.totals),
            "symbols": [e.to_dict() for e in self.symbols],
            "panels": {k: dict(v) for k, v in self.panels.items()},
            "meta": dict(self.meta),
        }

    def to_canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, fixed separators,
        trailing newline — the same summary always yields the same bytes."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, indent=2)
            + "\n"
        )

    @classmethod
    def from_dict(cls, d: object) -> "SessionSummary":
        _require(isinstance(d, dict), f"summary is not an object: {type(d)}")
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise AnalysisError(
                f"unsupported summary schema_version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        kind = d.get("kind")
        _require(isinstance(kind, str), f"summary kind {kind!r} not a string")
        events = d.get("events", [])
        _require(
            isinstance(events, list)
            and all(isinstance(e, str) for e in events),
            "events must be a list of strings",
        )
        totals = d.get("totals", {})
        _require(isinstance(totals, dict), "totals must be an object")
        for ev, n in totals.items():
            _require(
                isinstance(n, int) and not isinstance(n, bool),
                f"total for {ev!r} is not an integer: {n!r}",
            )
        symbols_raw = d.get("symbols", [])
        _require(isinstance(symbols_raw, list), "symbols must be a list")
        panels_raw = d.get("panels", {})
        _require(isinstance(panels_raw, dict), "panels must be an object")
        panels: dict[str, dict[str, int | float]] = {}
        for name, metrics in panels_raw.items():
            _require(
                isinstance(metrics, dict),
                f"panel {name!r} is not an object",
            )
            panels[name] = {
                k: _check_number(v, f"panel {name!r} metric {k!r}")
                for k, v in metrics.items()
            }
        meta = d.get("meta", {})
        _require(isinstance(meta, dict), "meta must be an object")
        return cls(
            kind=kind,
            schema_version=version,
            events=tuple(events),
            totals=dict(totals),
            symbols=[SymbolEntry.from_dict(s) for s in symbols_raw],
            panels=panels,
            meta=dict(meta),
        )

    @classmethod
    def from_json(cls, text: str) -> "SessionSummary":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise AnalysisError(f"summary is not valid JSON: {e}") from None
        return cls.from_dict(d)

    def save(self, path: Path | str) -> Path:
        path = Path(path)
        path.write_text(self.to_canonical_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "SessionSummary":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as e:
            raise AnalysisError(f"{path}: unreadable summary: {e}") from None
        try:
            return cls.from_json(text)
        except AnalysisError as e:
            raise AnalysisError(f"{path}: {e}") from None

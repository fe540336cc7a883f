"""Session comparison: align two summaries, derive rates, judge deltas.

``viprof analyze A B`` loads two :class:`~repro.metrics.model.SessionSummary`
inputs (``summary.json`` and ``report --json`` files, or session
directories — directories are re-derived from their artifacts on
demand), aligns them by (image, symbol) and by panel metric,
and evaluates the share deltas against an
:class:`~repro.metrics.panels.AnalysisConfig`.  The result is
deterministic: the same pair of inputs always produces the same JSON
bytes (floats are rounded at serialization, keys sorted).

:func:`analyze` is the tool's one comparison: ``viprof diff`` (both
forms) and :meth:`repro.oprofile.archive.SessionStore.diff` call it too.

Raw panels hold counters; comparison happens on **derived metrics**
(:func:`derived_metrics`), which add rates generically: a panel with a
positive ``total`` gets ``<key>_pct`` for every other counter
(``layers.kernel_pct``, ...).  Symbol shares are likewise derived from
counts over the event's total (:meth:`SessionSummary.symbol_shares`),
with ``appeared``/``vanished`` flags for methods present on only one
side.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import AnalysisError
from repro.metrics.build import derive_summary
from repro.metrics.model import SessionSummary
from repro.metrics.panels import (
    DEFAULT_CONFIG,
    DIRECTION_UP,
    AnalysisConfig,
)

__all__ = [
    "SymbolDelta",
    "MetricDelta",
    "Regression",
    "AnalysisResult",
    "align_shares",
    "derived_metrics",
    "analyze",
    "load_input",
]


@dataclass(frozen=True, slots=True)
class SymbolDelta:
    """Share movement of one (image, symbol) between two summaries."""

    image: str
    symbol: str
    before_pct: float
    after_pct: float

    @property
    def delta(self) -> float:
        return self.after_pct - self.before_pct

    @property
    def appeared(self) -> bool:
        return self.before_pct == 0.0 and self.after_pct > 0.0

    @property
    def vanished(self) -> bool:
        return self.before_pct > 0.0 and self.after_pct == 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "image": self.image,
            "symbol": self.symbol,
            "before_pct": round(self.before_pct, 4),
            "after_pct": round(self.after_pct, 4),
            "delta": round(self.delta, 4),
            "appeared": self.appeared,
            "vanished": self.vanished,
        }


@dataclass(frozen=True, slots=True)
class MetricDelta:
    """Movement of one derived panel metric between two summaries."""

    panel: str
    metric: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def ratio(self) -> float | None:
        """after/before, None when the baseline is zero."""
        return self.after / self.before if self.before else None

    def to_dict(self) -> dict[str, object]:
        ratio = self.ratio
        return {
            "panel": self.panel,
            "metric": self.metric,
            "before": round(self.before, 4),
            "after": round(self.after, 4),
            "delta": round(self.delta, 4),
            "ratio": round(ratio, 4) if ratio is not None else None,
        }


@dataclass(frozen=True, slots=True)
class Regression:
    """One tripped gate: a symbol share shift or a threshold violation."""

    kind: str  # "symbol" | "metric"
    subject: str
    message: str
    before: float
    after: float
    limit: float

    def to_dict(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "message": self.message,
            "before": round(self.before, 4),
            "after": round(self.after, 4),
            "limit": self.limit,
        }


def align_shares(
    before: dict[tuple[str, str], float],
    after: dict[tuple[str, str], float],
) -> list[SymbolDelta]:
    """Align two (image, symbol) → share maps over their key union, in
    sorted key order (the deterministic row order ``diff`` has always
    used)."""
    return [
        SymbolDelta(
            image=img,
            symbol=sym,
            before_pct=before.get((img, sym), 0.0),
            after_pct=after.get((img, sym), 0.0),
        )
        for (img, sym) in sorted(set(before) | set(after))
    ]


def derived_metrics(summary: SessionSummary) -> dict[str, dict[str, float]]:
    """Every panel's counters plus generically derived rates.

    Derivation is shape-driven, not panel-name-driven, so any producer's
    panel gets rates for free: ``total`` yields per-key percentages.
    """
    out: dict[str, dict[str, float]] = {}
    for name, panel in summary.panels.items():
        metrics: dict[str, float] = {
            k: float(v) for k, v in panel.items()
        }
        total = panel.get("total")
        if isinstance(total, (int, float)) and total > 0:
            for k, v in panel.items():
                if k != "total":
                    metrics[f"{k}_pct"] = 100.0 * v / total
        out[name] = metrics
    return out


@dataclass
class AnalysisResult:
    """Everything one analyze pass computed, JSON-able and renderable."""

    a_label: str
    b_label: str
    kind: str
    event: str | None
    symbols: list[SymbolDelta] = field(default_factory=list)
    metrics: list[MetricDelta] = field(default_factory=list)
    regressions: list[Regression] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def sorted_symbols(self) -> list[SymbolDelta]:
        return sorted(
            self.symbols, key=lambda s: (-abs(s.delta), s.image, s.symbol)
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "a": self.a_label,
            "b": self.b_label,
            "kind": self.kind,
            "event": self.event,
            "symbols": [s.to_dict() for s in self.sorted_symbols()],
            "metrics": [m.to_dict() for m in self.metrics],
            "regressions": [r.to_dict() for r in self.regressions],
            "ok": self.ok,
        }

    def to_json(self) -> str:
        """Canonical serialization: byte-stable across repeated runs."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def format_table(self, limit: int = 15) -> str:
        lines = [f"analyze: {self.a_label} -> {self.b_label} [{self.kind}]"]
        if self.symbols:
            lines.append(
                f"{'before %':>9} {'after %':>9} {'delta':>8}  "
                f"image : symbol ({self.event})"
            )
            for s in self.sorted_symbols()[:limit]:
                flag = (
                    "  [appeared]" if s.appeared
                    else "  [vanished]" if s.vanished else ""
                )
                lines.append(
                    f"{s.before_pct:9.3f} {s.after_pct:9.3f} "
                    f"{s.delta:+8.3f}  {s.image} : {s.symbol}{flag}"
                )
        if self.metrics:
            lines.append(
                f"{'before':>12} {'after':>12} {'delta':>10}  panel metric"
            )
            for m in self.metrics:
                lines.append(
                    f"{m.before:12.4f} {m.after:12.4f} {m.delta:+10.4f}  "
                    f"{m.panel}.{m.metric}"
                )
        if self.regressions:
            lines.append("regressions:")
            for r in self.regressions:
                lines.append(f"  FAIL [{r.kind}] {r.subject}: {r.message}")
        else:
            lines.append("no regressions")
        return "\n".join(lines)


def _pick_event(
    a: SessionSummary, b: SessionSummary, config: AnalysisConfig
) -> str | None:
    if config.symbols.event is not None:
        ev = config.symbols.event
        if ev in a.events and ev in b.events:
            return ev
        raise AnalysisError(
            f"configured symbols.event {ev!r} missing from one summary "
            f"(a: {list(a.events)}, b: {list(b.events)})"
        )
    common = [e for e in a.events if e in b.events]
    return common[0] if common else None


def analyze(
    a: SessionSummary,
    b: SessionSummary,
    config: AnalysisConfig | None = None,
    event: str | None = None,
    a_label: str = "a",
    b_label: str = "b",
) -> AnalysisResult:
    """Compare baseline ``a`` against candidate ``b``.

    Symbol shares are compared on one event (explicit ``event``, the
    config's pinned event, or the first event both summaries carry — no
    common event means no symbol comparison, as for collection
    summaries).  Every derived metric present in *both* summaries becomes
    a :class:`MetricDelta`; the config's thresholds and symbol rules
    decide which deltas are regressions.

    Raises:
        AnalysisError: when the summaries are of different kinds (a
            profile and a collection summary are not comparable).
    """
    if config is None:
        config = DEFAULT_CONFIG
    if a.kind != b.kind:
        raise AnalysisError(
            f"cannot analyze a {a.kind!r} summary against a {b.kind!r} "
            "summary — re-derive both from session directories or pass "
            "matching artifacts"
        )
    if event is not None:
        if event not in a.events or event not in b.events:
            raise AnalysisError(f"event {event!r} missing from one summary")
        ev = event
    else:
        ev = _pick_event(a, b, config)

    result = AnalysisResult(
        a_label=a_label, b_label=b_label, kind=a.kind, event=ev
    )

    if ev is not None:
        result.symbols = align_shares(
            a.symbol_shares(ev), b.symbol_shares(ev)
        )
        rules = config.symbols
        for s in result.sorted_symbols():
            if s.appeared:
                if (
                    rules.max_appear_points is not None
                    and s.after_pct > rules.max_appear_points
                ):
                    result.regressions.append(
                        Regression(
                            kind="symbol",
                            subject=f"{s.image}:{s.symbol}",
                            message=(
                                f"new symbol at {s.after_pct:.3f}% share "
                                f"(limit {rules.max_appear_points}%)"
                            ),
                            before=s.before_pct,
                            after=s.after_pct,
                            limit=rules.max_appear_points,
                        )
                    )
            elif (
                rules.max_gain_points is not None
                and s.delta > rules.max_gain_points
            ):
                result.regressions.append(
                    Regression(
                        kind="symbol",
                        subject=f"{s.image}:{s.symbol}",
                        message=(
                            f"share grew {s.delta:+.3f} points "
                            f"(limit +{rules.max_gain_points})"
                        ),
                        before=s.before_pct,
                        after=s.after_pct,
                        limit=rules.max_gain_points,
                    )
                )

    da, db = derived_metrics(a), derived_metrics(b)
    for panel in sorted(set(da) & set(db)):
        for metric in sorted(set(da[panel]) & set(db[panel])):
            result.metrics.append(
                MetricDelta(
                    panel=panel,
                    metric=metric,
                    before=da[panel][metric],
                    after=db[panel][metric],
                )
            )
    by_key = {(m.panel, m.metric): m for m in result.metrics}
    for th in config.thresholds:
        m = by_key.get((th.panel, th.key))
        if m is None:
            continue  # gated metric absent from this pair — not an error
        bad = m.delta > 0 if th.direction == DIRECTION_UP else m.delta < 0
        if not bad:
            continue
        if th.max_delta is not None and abs(m.delta) > th.max_delta:
            result.regressions.append(
                Regression(
                    kind="metric",
                    subject=th.metric,
                    message=(
                        f"moved {m.delta:+.4f} ({th.direction} is bad, "
                        f"limit {th.max_delta})"
                    ),
                    before=m.before,
                    after=m.after,
                    limit=th.max_delta,
                )
            )
            continue
        if th.max_ratio is not None and m.before > 0:
            ratio = m.after / m.before
            if th.direction == DIRECTION_UP:
                grew = ratio
            else:
                grew = (1.0 / ratio) if ratio > 0 else float("inf")
            if grew > th.max_ratio:
                result.regressions.append(
                    Regression(
                        kind="metric",
                        subject=th.metric,
                        message=(
                            f"ratio {ratio:.4f}x ({th.direction} is bad, "
                            f"limit {th.max_ratio}x)"
                        ),
                        before=m.before,
                        after=m.after,
                        limit=th.max_ratio,
                    )
                )
    return result


def load_input(path: Path | str) -> SessionSummary:
    """Load one analyze input, whatever its flavor.

    * a **directory** is treated as a session directory and re-derived
      from its artifacts (deterministic regardless of whether a
      ``summary.json`` is embedded — point at the file to compare the
      embedded copy itself);
    * a ``.json`` file is parsed as a serialized :class:`SessionSummary`
      (``summary.json``, ``report --json`` or ``--summary-out`` output).
    """
    path = Path(path)
    if path.is_dir():
        return derive_summary(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise AnalysisError(f"{path}: unreadable input: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise AnalysisError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise AnalysisError(f"{path}: not a JSON object")
    if "schema_version" not in doc or "kind" not in doc:
        raise AnalysisError(
            f"{path}: unrecognized input — expected a session directory, "
            "a summary.json, or a report --json document"
        )
    try:
        return SessionSummary.from_dict(doc)
    except AnalysisError as e:
        raise AnalysisError(f"{path}: {e}") from None

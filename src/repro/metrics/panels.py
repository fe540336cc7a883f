"""Declarative analysis configuration: metric panels and regression gates.

``viprof analyze`` evaluates a pair of summaries against an
:class:`AnalysisConfig` — which derived metrics to compute per panel, and
which deltas count as regressions.  Configs are plain data loaded from
TOML (Python ≥ 3.11, :mod:`tomllib`) or JSON (always available); the
built-in :data:`DEFAULT_CONFIG` gates the metrics every summary kind
carries.

Config document shape (TOML shown; the JSON shape is isomorphic)::

    [symbols]
    event = "GLOBAL_POWER_EVENTS"   # optional; default: primary event
    max_gain_points = 5.0           # share growth that flags a symbol
    max_appear_points = 1.0         # share at which a new symbol flags

    [[thresholds]]
    metric = "layers.kernel_pct"    # "<panel>.<derived metric>"
    direction = "up"                # bad direction: "up" | "down"
    max_delta = 5.0                 # |percentage-point| tolerance
    # max_ratio = 1.5               # alternative: b/a ratio tolerance

Thresholds only fire when both summaries actually carry the metric —
a config can gate panels that some producers never emit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import AnalysisError

try:
    import tomllib
except ImportError:  # Python < 3.11: TOML configs unavailable, JSON works
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "SymbolRules",
    "Threshold",
    "AnalysisConfig",
    "DEFAULT_CONFIG",
    "load_config",
]

DIRECTION_UP = "up"
DIRECTION_DOWN = "down"


@dataclass(frozen=True)
class SymbolRules:
    """When a per-symbol share shift counts as a regression.

    ``max_gain_points``: a symbol whose share grew by more than this many
    percentage points flags (hot code got hotter).  ``max_appear_points``:
    a symbol absent from the baseline flags once its share exceeds this.
    ``event`` pins the event column; None uses each pair's common primary
    event.  Either limit may be None to disable that check.
    """

    event: str | None = None
    max_gain_points: float | None = 5.0
    max_appear_points: float | None = 1.0


@dataclass(frozen=True)
class Threshold:
    """One regression gate over a derived panel metric.

    ``metric`` is ``"<panel>.<metric>"`` (split on the first dot);
    ``direction`` names the *bad* direction.  ``max_delta`` bounds the
    absolute change in the bad direction; ``max_ratio`` bounds the
    after/before ratio (> 1 means growth).  At least one bound must be
    set.
    """

    metric: str
    direction: str = DIRECTION_UP
    max_delta: float | None = None
    max_ratio: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_UP, DIRECTION_DOWN):
            raise AnalysisError(
                f"threshold {self.metric!r}: direction must be "
                f"'up' or 'down', got {self.direction!r}"
            )
        if "." not in self.metric:
            raise AnalysisError(
                f"threshold metric {self.metric!r} must be "
                "'<panel>.<metric>'"
            )
        if self.max_delta is None and self.max_ratio is None:
            raise AnalysisError(
                f"threshold {self.metric!r} sets neither max_delta "
                "nor max_ratio"
            )

    @property
    def panel(self) -> str:
        return self.metric.split(".", 1)[0]

    @property
    def key(self) -> str:
        return self.metric.split(".", 1)[1]


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything ``viprof analyze`` needs to judge a summary pair."""

    symbols: SymbolRules = field(default_factory=SymbolRules)
    thresholds: tuple[Threshold, ...] = ()


#: The gates applied when no config file is given: symbol share growth
#: and the kernel/unresolved layer shares (the paper's headline axes).
DEFAULT_CONFIG = AnalysisConfig(
    symbols=SymbolRules(max_gain_points=5.0, max_appear_points=1.0),
    thresholds=(
        Threshold(
            metric="layers.kernel_pct", direction=DIRECTION_UP, max_delta=5.0
        ),
        Threshold(
            metric="layers.unresolved_pct",
            direction=DIRECTION_UP,
            max_delta=2.0,
        ),
    ),
)


def _number_or_none(
    d: dict[str, object], key: str, where: str
) -> float | None:
    v = d.get(key)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise AnalysisError(
            f"analysis config: {where}.{key} must be a number, got {v!r}"
        )
    return float(v)


def _parse_config(doc: object, source: str) -> AnalysisConfig:
    if not isinstance(doc, dict):
        raise AnalysisError(
            f"{source}: analysis config must be an object/table at top level"
        )
    symbols = SymbolRules()
    raw_symbols = doc.get("symbols")
    if raw_symbols is not None:
        if not isinstance(raw_symbols, dict):
            raise AnalysisError(f"{source}: [symbols] must be a table")
        event = raw_symbols.get("event")
        if event is not None and not isinstance(event, str):
            raise AnalysisError(
                f"{source}: symbols.event must be a string, got {event!r}"
            )
        symbols = SymbolRules(
            event=event,
            max_gain_points=_number_or_none(
                raw_symbols, "max_gain_points", "symbols"
            ),
            max_appear_points=_number_or_none(
                raw_symbols, "max_appear_points", "symbols"
            ),
        )
    thresholds: list[Threshold] = []
    raw_thresholds = doc.get("thresholds", [])
    if not isinstance(raw_thresholds, list):
        raise AnalysisError(f"{source}: thresholds must be an array of tables")
    for i, raw in enumerate(raw_thresholds):
        where = f"thresholds[{i}]"
        if not isinstance(raw, dict):
            raise AnalysisError(f"{source}: {where} must be a table")
        metric = raw.get("metric")
        if not isinstance(metric, str):
            raise AnalysisError(
                f"{source}: {where}.metric must be a string, got {metric!r}"
            )
        direction = raw.get("direction", DIRECTION_UP)
        if not isinstance(direction, str):
            raise AnalysisError(
                f"{source}: {where}.direction must be a string"
            )
        thresholds.append(
            Threshold(
                metric=metric,
                direction=direction,
                max_delta=_number_or_none(raw, "max_delta", where),
                max_ratio=_number_or_none(raw, "max_ratio", where),
            )
        )
    return AnalysisConfig(symbols=symbols, thresholds=tuple(thresholds))


def load_config(path: Path | str) -> AnalysisConfig:
    """Load an analysis config from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise AnalysisError(f"{path}: unreadable analysis config: {e}") \
            from None
    if path.suffix.lower() == ".toml":
        if tomllib is None:
            raise AnalysisError(
                f"{path}: TOML configs need Python >= 3.11 (tomllib); "
                "use a JSON config on this interpreter"
            )
        try:
            doc = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as e:
            raise AnalysisError(f"{path}: bad TOML: {e}") from None
    else:
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise AnalysisError(f"{path}: bad JSON: {e}") from None
    return _parse_config(doc, str(path))

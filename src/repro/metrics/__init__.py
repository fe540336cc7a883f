"""Unified session metrics: one model, many producers, one analyzer.

* :mod:`repro.metrics.model` — the versioned, mergeable
  :class:`~repro.metrics.model.SessionSummary` every producer emits.
* :mod:`repro.metrics.build` — builders from each producer's native
  stats (resolver chain, daemon, GC, salvage, session artifacts).
* :mod:`repro.metrics.panels` — declarative analysis config (derived
  metric panels + regression thresholds, TOML/JSON).
* :mod:`repro.metrics.analyze` — ``viprof analyze``: align two
  summaries, compute share deltas, judge them against a config.

See ``docs/analysis.md`` for the schema and the gating workflow.
"""

from repro.metrics.analyze import (
    AnalysisResult,
    MetricDelta,
    Regression,
    SymbolDelta,
    align_shares,
    analyze,
    derived_metrics,
    load_input,
)
from repro.metrics.build import (
    collection_summary,
    derive_summary,
    load_session_summary,
    summary_from_report,
    summary_from_run,
    write_session_summary,
)
from repro.metrics.fleet import (
    domain_summary,
    fleet_report_doc,
    fleet_rollup,
    normalize_summary,
    per_domain_stats,
)
from repro.metrics.model import (
    KIND_ARTIFACTS,
    KIND_COLLECTION,
    KIND_PROFILE,
    SCHEMA_VERSION,
    SUMMARY_NAME,
    SessionSummary,
    SymbolEntry,
)
from repro.metrics.panels import (
    DEFAULT_CONFIG,
    AnalysisConfig,
    SymbolRules,
    Threshold,
    load_config,
)

__all__ = [
    "SCHEMA_VERSION",
    "KIND_PROFILE",
    "KIND_COLLECTION",
    "KIND_ARTIFACTS",
    "SUMMARY_NAME",
    "SessionSummary",
    "SymbolEntry",
    "summary_from_report",
    "summary_from_run",
    "collection_summary",
    "derive_summary",
    "load_session_summary",
    "write_session_summary",
    "domain_summary",
    "fleet_report_doc",
    "fleet_rollup",
    "normalize_summary",
    "per_domain_stats",
    "AnalysisConfig",
    "SymbolRules",
    "Threshold",
    "DEFAULT_CONFIG",
    "load_config",
    "AnalysisResult",
    "SymbolDelta",
    "MetricDelta",
    "Regression",
    "align_shares",
    "derived_metrics",
    "analyze",
    "load_input",
]

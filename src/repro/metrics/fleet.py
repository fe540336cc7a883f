"""Cross-domain fleet metrics: per-domain summaries and the fleet rollup.

A fleet run produces one :class:`~repro.metrics.model.SessionSummary` per
guest domain plus a merged *rollup*.  Three rules make the rollup exact
and order-independent:

* every per-domain summary carries its panels twice — once under the
  shared names (``layers``, ``jit``, ``degraded``, ...) and once prefixed
  ``dom<N>.<panel>`` — so the merged summary keeps both the fleet-wide
  totals (shared panels sum across domains) and each domain's own
  counters (prefixed names are unique per domain, so merging passes them
  through untouched);
* every per-domain summary carries a ``fleet`` panel of ``{"domains": 1}``
  — domain counting is itself a mergeable counter, not post-hoc metadata;
* :func:`fleet_rollup` normalizes event and symbol order
  (:func:`normalize_summary`), because ``SessionSummary.merge`` appends
  in first-seen order — the *counters* are order-independent but the
  serialization would not be.  After normalization, merging the
  per-domain summaries in any order yields byte-identical rollups
  (property-tested in ``tests/xen/test_fleet_properties.py``).

``viprof analyze`` needs no fleet-specific support: its derived metrics
iterate panels generically, so ``dom3.jit`` regressions gate exactly like
``jit`` regressions.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import AnalysisError
from repro.metrics.build import resolution_panels, summary_from_report
from repro.metrics.model import SessionSummary
from repro.profiling.report import ProfileReport

__all__ = [
    "per_domain_stats",
    "domain_summary",
    "normalize_summary",
    "fleet_rollup",
    "fleet_report_doc",
]


def per_domain_stats(stats: dict[str, object]) -> dict[int, dict[str, object]]:
    """Each domain's inner-chain ``stats_dict`` out of a fleet chain's.

    The multi-stack chain's dispatch stage reports its inner chains
    under ``detail`` keyed ``dom<N>`` (see
    :meth:`~repro.pipeline.stages.DomainDispatchStage.detail_dict`);
    this returns them keyed by integer domain id, sorted.
    """
    stages = stats.get("stages")
    if not isinstance(stages, list):
        return {}
    out: dict[int, dict[str, object]] = {}
    for entry in stages:
        if not isinstance(entry, dict):
            continue
        if entry.get("stage") != "domain-dispatch":
            continue
        detail = entry.get("detail")
        if not isinstance(detail, dict):
            continue
        for key, sub in detail.items():
            if not (
                isinstance(key, str)
                and key.startswith("dom")
                and isinstance(sub, dict)
            ):
                continue
            try:
                did = int(key[3:])
            except ValueError:
                continue
            out[did] = sub
    return dict(sorted(out.items()))


def domain_summary(
    domain_id: int,
    report: ProfileReport,
    stats: dict[str, object] | None = None,
    meta: Mapping[str, object] | None = None,
) -> SessionSummary:
    """One guest domain's summary, rollup-ready.

    ``stats`` is the domain's resolving chain's ``stats_dict`` — either
    a plain VIProf chain's, or a multi-stack (hypervisor + dispatch)
    chain's, in which case this domain's *inner*-chain counters are
    flattened out of the dispatch stage's detail so the panels show the
    real kernel/JIT/boot-image layer split instead of one opaque
    ``domain_dispatch`` hit count.  Each shared panel also
    gets a ``dom<N>.``-prefixed copy, and a ``fleet`` panel counts this
    domain itself.
    """
    extra_panels: dict[str, dict[str, int | float]] = {}
    if stats is not None:
        inner = per_domain_stats(stats).get(domain_id)
        if inner is not None:
            panels = resolution_panels(stats)
            inner_panels = resolution_panels(inner)
            layers = panels.setdefault("layers", {})
            layers.pop("domain_dispatch", None)
            for k, v in inner_panels.get("layers", {}).items():
                if k != "total":
                    layers[k] = layers.get(k, 0) + v
            for name, metrics in inner_panels.items():
                if name == "layers":
                    continue
                panel = panels.setdefault(name, {})
                for k, v in metrics.items():
                    panel[k] = panel.get(k, 0) + v
            extra_panels, stats = panels, None
    summary = summary_from_report(
        report,
        stats=stats,
        meta={"domain_id": domain_id, **dict(meta or {})},
        extra_panels=extra_panels or None,
    )
    summary.panels.update(
        {
            f"dom{domain_id}.{name}": dict(panel)
            for name, panel in summary.panels.items()
        }
    )
    summary.panels["fleet"] = {"domains": 1}
    return summary


def normalize_summary(summary: SessionSummary) -> SessionSummary:
    """Canonical event and symbol order, in place.

    Events go time-event-first then alphabetical (the tree's column
    convention); symbols sort by descending counts across that event
    order with the (image, symbol) key as a total-order tiebreak.  Two
    summaries holding the same counters normalize to the same bytes no
    matter what merge order built them.
    """
    summary.events = tuple(
        sorted(summary.events, key=lambda n: (n != "GLOBAL_POWER_EVENTS", n))
    )
    summary.symbols.sort(
        key=lambda e: (
            tuple(-e.count(ev) for ev in summary.events),
            e.key,
        )
    )
    return summary


def fleet_rollup(
    summaries: Mapping[int, SessionSummary],
) -> SessionSummary:
    """Merge per-domain summaries into the fleet-wide summary.

    Exact by construction (panels are raw counters) and independent of
    ``summaries`` ordering (the result is normalized).  The inputs are
    not mutated.
    """
    if not summaries:
        raise AnalysisError("fleet rollup needs at least one domain summary")
    out: SessionSummary | None = None
    for did in sorted(summaries):
        copy = SessionSummary.from_dict(summaries[did].to_dict())
        out = copy if out is None else out.merge(copy)
    assert out is not None
    return normalize_summary(out)


def fleet_report_doc(
    summaries: Mapping[int, SessionSummary],
    rollup: SessionSummary | None = None,
    top_n: int = 10,
) -> dict[str, object]:
    """The ``viprof report --per-domain --json`` document.

    Top-``top_n`` symbols per domain and fleet-wide, per-event totals,
    and each domain's panel counters — everything the cross-domain view
    prints, in one JSON-able shape.
    """
    if rollup is None:
        rollup = fleet_rollup(summaries)

    def _top(summary: SessionSummary) -> list[dict[str, object]]:
        return [
            {
                "image": e.image,
                "symbol": e.symbol,
                "counts": dict(e.counts),
            }
            for e in summary.symbols[:top_n]
        ]

    domains: dict[str, object] = {}
    for did in sorted(summaries):
        s = normalize_summary(
            SessionSummary.from_dict(summaries[did].to_dict())
        )
        domains[f"dom{did}"] = {
            "events": list(s.events),
            "totals": dict(s.totals),
            "top_symbols": _top(s),
            "panels": {
                name: dict(panel)
                for name, panel in s.panels.items()
                if not name.startswith("dom")
            },
        }
    return {
        "schema_version": rollup.schema_version,
        "kind": "fleet",
        "domains": domains,
        "fleet": {
            "events": list(rollup.events),
            "totals": dict(rollup.totals),
            "top_symbols": _top(rollup),
            "panels": {k: dict(v) for k, v in rollup.panels.items()},
        },
    }

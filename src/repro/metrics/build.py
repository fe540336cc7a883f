"""Builders: each metrics producer's native stats → :class:`SessionSummary`.

This is the refactor seam of the unified-metrics model: the resolver
chain, the streaming aggregator, the collection daemon and salvage all
keep their own counter structures (they are hot paths), and this module
is the *only* place that knows how each shape maps onto summary panels.
Everything here emits raw counters — derived rates belong to
:mod:`repro.metrics.analyze`.

Panel vocabulary (all counters, mergeable by summation):

``layers``
    Per-resolver-stage hit counts (``kernel``, ``jit_epoch``,
    ``boot_image``, ``task_vma``, ``unresolved``, ...) plus ``total`` —
    the per-layer attribution the paper's vertical integration exists to
    provide.
``jit``
    The JIT epoch-walk split (own epoch / earlier epoch / unresolved /
    blocked at quarantine).
``degraded``
    Post-salvage degradation counters (samples blocked at quarantine
    barriers).
``gc``
    GC-epoch cost: collections, code bodies moved/promoted, bytes
    promoted.
``collection``
    Daemon-side sample accounting (kernel/file/anon/jit classification,
    wakeups, buffer loss).
``daemon``
    Daemon overhead: cycles charged to ``oprofiled`` symbols.
``salvage``
    Crash-recovery loss accounting (files truncated/quarantined, records
    kept, bytes dropped, epochs fenced off).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.errors import AnalysisError, CodeMapError, SampleFormatError
from repro.metrics.model import (
    KIND_ARTIFACTS,
    KIND_COLLECTION,
    KIND_PROFILE,
    SCHEMA_VERSION,
    SUMMARY_NAME,
    SessionSummary,
    SymbolEntry,
)
from repro.profiling.model import RawSample
from repro.profiling.record_codec import open_sample_record_file
from repro.profiling.report import ProfileReport
from repro.viprof.runtime_profiler import VmRegistration

__all__ = [
    "resolution_panels",
    "gc_panel",
    "collection_panel",
    "salvage_panel",
    "summary_from_report",
    "summary_from_run",
    "collection_summary",
    "derive_summary",
    "load_session_summary",
    "sample_layer",
    "session_registration",
    "report_json_doc",
    "write_session_summary",
]


def _int_counters(d: dict[str, object]) -> dict[str, int]:
    """The integer counters of a stats mapping (drops derived floats —
    panels hold raw counters only, so merging stays exact)."""
    return {
        k: v
        for k, v in d.items()
        if isinstance(v, int) and not isinstance(v, bool)
    }


def resolution_panels(
    stats: dict[str, object],
) -> dict[str, dict[str, int | float]]:
    """Panels from :meth:`repro.pipeline.resolver.ResolverChain.stats_dict`.

    Builds ``layers`` (per-stage hit counts + ``total``), ``jit`` (the
    epoch-walk detail) and, for degraded post-salvage chains,
    ``degraded``.
    """
    panels: dict[str, dict[str, int | float]] = {}
    layers: dict[str, int | float] = {}
    jit: dict[str, int | float] = {}
    degraded: dict[str, int | float] = {}
    stages = stats.get("stages")
    if isinstance(stages, list):
        for entry in stages:
            if not isinstance(entry, dict):
                continue
            name = str(entry.get("stage", "?")).replace("-", "_")
            hits = entry.get("hits", 0)
            if isinstance(hits, int) and not isinstance(hits, bool):
                layers[name] = layers.get(name, 0) + hits
            detail = entry.get("detail")
            if isinstance(detail, dict):
                for k, v in _int_counters(detail).items():
                    jit[k] = jit.get(k, 0) + v
            deg = entry.get("degraded")
            if isinstance(deg, dict):
                for k, v in _int_counters(deg).items():
                    degraded[k] = degraded.get(k, 0) + v
    total = stats.get("total_samples")
    if isinstance(total, int) and not isinstance(total, bool):
        layers["total"] = total
    if layers:
        panels["layers"] = layers
    if jit:
        panels["jit"] = jit
    if degraded:
        panels["degraded"] = degraded
    return panels


def gc_panel(gc_stats: object) -> dict[str, int | float]:
    """GC-epoch cost counters from :class:`repro.jvm.gc.GcStats`."""
    fields = (
        "minor_collections",
        "major_collections",
        "code_bodies_moved",
        "code_bodies_promoted",
        "obsolete_bodies_reclaimed",
        "data_bytes_promoted",
    )
    out: dict[str, int | float] = {}
    for f in fields:
        v = getattr(gc_stats, f, None)
        if isinstance(v, int) and not isinstance(v, bool):
            out[f] = v
    return out


def collection_panel(
    daemon_stats: object, buffer_lost: int = 0
) -> dict[str, int | float]:
    """Daemon-side sample accounting from
    :class:`repro.oprofile.daemon.DaemonStats`."""
    fields = (
        "samples_logged",
        "kernel_samples",
        "file_samples",
        "anon_samples",
        "jit_samples",
        "wakeups",
    )
    out: dict[str, int | float] = {}
    for f in fields:
        v = getattr(daemon_stats, f, None)
        if isinstance(v, int) and not isinstance(v, bool):
            out[f] = v
    out["buffer_lost"] = buffer_lost
    return out


def salvage_panel(manifest: dict[str, object]) -> dict[str, int | float]:
    """Loss accounting from a ``salvage.json`` manifest dict (version 1).

    Computed from the per-artifact entries, so statcheck's VP110 can
    re-derive it and cross-check the embedded copy against the manifest's
    own claims.
    """
    panel: dict[str, int | float] = {
        "files_intact": 0,
        "files_truncated": 0,
        "files_quarantined": 0,
        "maps_intact": 0,
        "maps_quarantined": 0,
        "records_kept": 0,
        "bytes_dropped": 0,
        "quarantined_epochs": 0,
    }
    entries = manifest.get("sample_files")
    if isinstance(entries, list):
        for e in entries:
            if not isinstance(e, dict):
                continue
            action = e.get("action")
            if action == "intact":
                panel["files_intact"] += 1
            elif action == "truncated":
                panel["files_truncated"] += 1
            elif action == "quarantined":
                panel["files_quarantined"] += 1
            kept = e.get("records_kept")
            if isinstance(kept, int) and not isinstance(kept, bool):
                panel["records_kept"] += kept
            dropped = e.get("bytes_dropped")
            if isinstance(dropped, int) and not isinstance(dropped, bool):
                panel["bytes_dropped"] += dropped
    maps = manifest.get("maps")
    if isinstance(maps, list):
        for m in maps:
            if not isinstance(m, dict):
                continue
            if m.get("action") == "intact":
                panel["maps_intact"] += 1
            elif m.get("action") == "quarantined":
                panel["maps_quarantined"] += 1
    quarantined = manifest.get("quarantined_epochs")
    if isinstance(quarantined, list):
        panel["quarantined_epochs"] = len(quarantined)
    return panel


def summary_from_report(
    report: ProfileReport,
    stats: dict[str, object] | None = None,
    kind: str = KIND_PROFILE,
    meta: dict[str, object] | None = None,
    extra_panels: dict[str, dict[str, int | float]] | None = None,
) -> SessionSummary:
    """A resolved profile (and optionally its chain stats) as a summary.

    Symbols appear in report order (primary event descending, the
    opreport sort), so two summaries of the same run serialize
    identically.
    """
    symbols = [
        SymbolEntry(
            image=row.image,
            symbol=row.symbol,
            counts={
                ev: row.count(ev) for ev in report.events if row.count(ev)
            },
        )
        for row in report.sorted_rows()
    ]
    panels = resolution_panels(stats) if stats is not None else {}
    if extra_panels:
        for name, metrics in extra_panels.items():
            panels[name] = dict(metrics)
    return SessionSummary(
        kind=kind,
        events=tuple(report.events),
        totals={ev: report.totals.get(ev, 0) for ev in report.events},
        symbols=symbols,
        panels=panels,
        meta=dict(meta or {}),
    )


def summary_from_run(run: object, vr: object | None = None) -> SessionSummary:
    """The full-stack summary of one engine run
    (:class:`repro.system.engine.RunResult`).

    Combines the resolution-side panels (when a
    :class:`~repro.system.engine.ViprofReportResult` is given) with the
    run's collection-side accounting: daemon classification counters,
    daemon overhead cycles, and GC-epoch cost.
    """
    extra: dict[str, dict[str, int | float]] = {}
    daemon_stats = getattr(run, "daemon_stats", None)
    if daemon_stats is not None:
        extra["collection"] = collection_panel(
            daemon_stats, buffer_lost=getattr(run, "buffer_lost", 0)
        )
    session = getattr(run, "viprof_session", None)
    daemon = getattr(session, "daemon", None)
    overhead = getattr(daemon, "overhead_panel", None)
    if callable(overhead):
        extra["daemon"] = overhead()
    gc_stats = getattr(run, "gc_stats", None)
    if gc_stats is not None:
        panel = gc_panel(gc_stats)
        if panel:
            extra["gc"] = panel
    meta: dict[str, object] = {
        "workload": getattr(run, "workload_name", None),
        "mode": getattr(getattr(run, "mode", None), "value", None),
        "wall_cycles": getattr(run, "wall_cycles", None),
        "workload_cycles": getattr(run, "workload_cycles", None),
    }
    meta = {k: v for k, v in meta.items() if v is not None}
    if vr is not None:
        return summary_from_report(
            vr.report, stats=vr.stage_stats, meta=meta, extra_panels=extra
        )
    report = ProfileReport(events=(), rows=[], totals={})
    return summary_from_report(report, meta=meta, extra_panels=extra)


def _event_totals(sample_dir: Path) -> dict[str, int]:
    """Per-event record counts from the sample files' headers (skips the
    quarantine subdirectory, like the pipeline's directory source)."""
    totals: dict[str, int] = {}
    if not sample_dir.is_dir():
        return totals
    for path in sorted(sample_dir.glob("*.samples")):
        try:
            with open_sample_record_file(path) as reader:
                ev = reader.event_name
                totals[ev] = totals.get(ev, 0) + len(reader)
        except SampleFormatError:
            # A torn file is salvage's problem; the collection summary
            # counts what is readable.
            continue
    return totals


def collection_summary(
    sample_dir: Path | str,
    daemon_stats: object,
    buffer_lost: int = 0,
    overhead: dict[str, int | float] | None = None,
    registration: object | None = None,
) -> SessionSummary:
    """The collection-side summary a live session writes at teardown.

    Per-event totals come from the sample files actually on disk (the
    daemon's ``samples_logged`` may exceed them when a crash dropped
    buffered records — VP110 checks exactly that agreement).
    """
    sample_dir = Path(sample_dir)
    totals = _event_totals(sample_dir)
    panels: dict[str, dict[str, int | float]] = {
        "collection": collection_panel(daemon_stats, buffer_lost=buffer_lost)
    }
    if overhead:
        panels["daemon"] = dict(overhead)
    meta: dict[str, object] = {}
    task_id = getattr(registration, "task_id", None)
    if isinstance(task_id, int):
        meta["registration"] = {
            "task_id": task_id,
            "heap_low": getattr(registration, "heap_low", 0),
            "heap_high": getattr(registration, "heap_high", 0),
        }
    return SessionSummary(
        kind=KIND_COLLECTION,
        events=tuple(totals),
        totals=totals,
        panels=panels,
        meta=meta,
    )


def session_registration(session_dir: Path | str) -> VmRegistration | None:
    """The VM heap registration a session directory records: the
    ``registration`` block of ``meta.json`` (archives, fixtures) first,
    else the one in the embedded ``summary.json`` meta (live sessions).
    None when neither holds a well-formed block."""
    session_dir = Path(session_dir)
    meta_path = session_dir / "meta.json"
    if meta_path.is_file():
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # JSON or UTF-8 decode errors
            meta = None
        if isinstance(meta, dict):
            reg = VmRegistration.parse(meta.get("registration"))
            if reg is not None:
                return reg
    summary_path = session_dir / SUMMARY_NAME
    if summary_path.is_file():
        try:
            meta = SessionSummary.load(summary_path).meta
        except AnalysisError:
            return None
        return VmRegistration.parse(meta.get("registration"))
    return None


def sample_layer(sample: RawSample, reg: VmRegistration | None) -> str:
    """The offline layer of one sample: ``kernel`` in kernel mode,
    ``jit`` in user mode inside the registered VM heap, else ``user`` —
    the daemon's kernel-mode / heap-bounds split, for readers that have
    no kernel or boot image."""
    if sample.kernel_mode:
        return "kernel"
    if reg is not None and sample.task_id == reg.task_id \
            and reg.covers(sample.pc):
        return "jit"
    return "user"


def derive_summary(session_dir: Path | str) -> SessionSummary:
    """Derive a summary offline from a session directory's artifacts alone.

    No kernel or boot image is available here, so the per-layer split is
    coarser than a full report: ``kernel`` is the kernel-mode sample
    count, ``jit`` the user samples inside the registered VM heap (when a
    registration is on record), ``user`` the rest.  JIT samples *are*
    symbolized — the epoch code maps are in the directory, and the
    backward walk needs nothing else — which is what makes two session
    directories diffable by (image, symbol) without re-running anything.
    """
    from repro.jvm.machine import JIT_APP_IMAGE_LABEL
    from repro.pipeline.stages import UNRESOLVED_JIT
    from repro.viprof.codemap import CodeMapIndex, RESOLVE_BLOCKED

    session_dir = Path(session_dir)
    if not session_dir.is_dir():
        raise AnalysisError(f"{session_dir}: not a session directory")
    sample_dir = session_dir / "samples"
    map_dir = session_dir / "jit-maps"
    if not sample_dir.is_dir() and not map_dir.is_dir():
        raise AnalysisError(
            f"{session_dir}: no samples/ or jit-maps/ — not a VIProf "
            "session directory"
        )

    quarantined: tuple[int, ...] = ()
    salvage: dict[str, object] | None = None
    salvage_path = session_dir / "salvage.json"
    if salvage_path.is_file():
        try:
            loaded = json.loads(salvage_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:  # JSON or UTF-8 decode errors
            raise AnalysisError(
                f"{salvage_path}: unreadable salvage manifest: {e}"
            ) from None
        if isinstance(loaded, dict):
            salvage = loaded
            q = loaded.get("quarantined_epochs")
            if isinstance(q, list):
                quarantined = tuple(e for e in q if isinstance(e, int))

    codemaps = None
    if map_dir.is_dir():
        try:
            codemaps = CodeMapIndex.load_dir(map_dir, quarantined=quarantined)
        except CodeMapError as e:
            raise AnalysisError(
                f"{map_dir}: unreadable code maps: {e} — salvage the "
                "session first (viprof recover)"
            ) from None

    reg = session_registration(session_dir)
    totals: dict[str, int] = {}
    events: list[str] = []
    layers: dict[str, int | float] = {
        "kernel": 0,
        "jit": 0,
        "user": 0,
        "total": 0,
    }
    jit_detail: dict[str, int | float] = {
        "resolved": 0,
        "unresolved": 0,
        "blocked_at_quarantine": 0,
    }
    symbols: dict[tuple[str, str], SymbolEntry] = {}
    #: heap samples per (epoch, pc, event), in first-seen order
    jit: dict[tuple[int, int, str], int] = {}

    if sample_dir.is_dir():
        for path in sorted(sample_dir.glob("*.samples")):
            try:
                with open_sample_record_file(path) as reader:
                    ev = reader.event_name
                    if ev not in totals:
                        totals[ev] = 0
                        events.append(ev)
                    for rec in reader:
                        s = rec.sample
                        totals[ev] += 1
                        layers["total"] += 1
                        layer = sample_layer(s, reg)
                        layers[layer] += 1
                        if layer == "jit":
                            key = (s.epoch, s.pc, ev)
                            jit[key] = jit.get(key, 0) + 1
            except SampleFormatError as e:
                raise AnalysisError(
                    f"{path}: unreadable sample file: {e} — salvage the "
                    "session first (viprof recover)"
                ) from None

    hits = (
        codemaps.resolve_keys((epoch, pc) for epoch, pc, _ in jit)
        if codemaps is not None
        else {}
    )
    # Counting keys in first-seen order creates symbols in the order
    # their first samples appear, which orders the ties below.
    for (epoch, pc, ev), n in jit.items():
        hit = hits.get((epoch, pc))
        if hit is None:
            outcome, symbol = "unresolved", UNRESOLVED_JIT
        elif hit is RESOLVE_BLOCKED:
            outcome, symbol = "blocked_at_quarantine", UNRESOLVED_JIT
        else:
            outcome, symbol = "resolved", hit[0].name
        jit_detail[outcome] += n
        entry = symbols.get((JIT_APP_IMAGE_LABEL, symbol))
        if entry is None:
            entry = symbols[(JIT_APP_IMAGE_LABEL, symbol)] = SymbolEntry(
                image=JIT_APP_IMAGE_LABEL, symbol=symbol
            )
        entry.counts[ev] = entry.counts.get(ev, 0) + n

    panels: dict[str, dict[str, int | float]] = {"layers": layers}
    if layers["jit"]:
        panels["jit"] = jit_detail
    if salvage is not None:
        panels["salvage"] = salvage_panel(salvage)

    ordered = sorted(
        symbols.values(),
        key=lambda e: tuple(-e.count(ev) for ev in events),
    )
    return SessionSummary(
        kind=KIND_ARTIFACTS,
        events=tuple(events),
        totals=totals,
        symbols=ordered,
        panels=panels,
        meta={"session_dir": session_dir.name},
    )


def load_session_summary(session_dir: Path | str) -> SessionSummary:
    """A session directory's summary: the embedded ``summary.json`` when
    the session wrote one at teardown, else derived on demand from the
    artifacts."""
    session_dir = Path(session_dir)
    embedded = session_dir / SUMMARY_NAME
    if embedded.is_file():
        return SessionSummary.load(embedded)
    return derive_summary(session_dir)


def report_json_doc(
    report: ProfileReport, stats: dict[str, object] | None = None
) -> dict[str, object]:
    """The ``report --json`` document: the legacy shape (``events`` /
    ``symbols`` with percents / ``resolution``) plus the unified model's
    additive fields (``schema_version``, ``panels``).

    :func:`repro.profiling.export.report_to_json` serializes this — the
    legacy keys are untouched so existing consumers keep parsing.
    """
    summary = summary_from_report(report, stats=stats)
    doc: dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "events": {ev: report.totals.get(ev, 0) for ev in report.events},
        "symbols": [
            {
                "image": row.image,
                "symbol": row.symbol,
                "counts": {ev: row.count(ev) for ev in report.events},
                "percent": {
                    ev: round(report.percent(row, ev), 4)
                    for ev in report.events
                },
            }
            for row in report.sorted_rows()
        ],
        "panels": {k: dict(v) for k, v in summary.panels.items()},
    }
    if stats is not None:
        doc["resolution"] = stats
    return doc


def write_session_summary(session_dir: Path | str) -> Path:
    """Derive a session directory's summary from its artifacts and write
    it as canonical ``summary.json`` (the tool statcheck fixtures use)."""
    session_dir = Path(session_dir)
    summary = derive_summary(session_dir)
    return summary.save(session_dir / SUMMARY_NAME)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.metrics.build <session-dir> [...]`` — write the
    derived ``summary.json`` into each session directory."""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.metrics.build SESSION_DIR...",
              file=sys.stderr)
        return 2
    for p in paths:
        out = write_session_summary(p)
        print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

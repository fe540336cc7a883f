"""Built-in artifact rules: the static integrity model of a session.

Each rule encodes one invariant the paper's backward epoch-walk
attribution (§3.2) silently depends on:

VP101  map-overlap            Within one epoch, the bump allocator never
                              reuses space, so records must be disjoint;
                              an overlap makes attribution ambiguous.
VP102  epoch-gap              Maps are written at every epoch close; a
                              gap means an epoch's compilations are lost
                              and its samples mis-walk to older maps.
VP103  orphan-sample          Every heap sample must resolve in *some*
                              map when walking backwards from its epoch;
                              an orphan is an attribution the paper's
                              algorithm cannot make.
VP104  signature-collision    A JIT signature that also names a
                              boot-image method makes JIT.App vs RVM.map
                              rows indistinguishable in merged reports.
VP105  stale-moved-flag       A record written because the previous GC
                              *moved* the body implies the body existed
                              — its signature must appear in a strictly
                              earlier map.
VP106  epoch-tag              Sample epoch tags come from a monotonic GC
                              counter: they must be >= -1, must not
                              regress as time advances, and should not
                              exceed the newest map's epoch (a missing
                              final flush).
VP107  salvage-manifest       A salvage manifest must agree with the
                              filesystem: every artifact it names exists
                              in the state it claims, every artifact on
                              disk is accounted for, and quarantine
                              directories never exist without a manifest.
VP108  quarantine-isolation   Quarantined epochs must be exactly the
                              epochs in 0..top_epoch without a healthy
                              map, and a quarantined map must never be
                              shadowed by a healthy map for the same
                              epoch.
VP109  loss-accounting        The manifest's loss numbers must add up:
                              a truncation drops a strict sub-record
                              tail, ``torn_at`` sits at the record
                              boundary it claims, and ``top_epoch``
                              covers every epoch the surviving artifacts
                              mention.
VP110  summary-consistency   A session's embedded ``summary.json`` (and
                              the summary a salvage manifest embeds) must
                              agree with the artifacts on disk: per-event
                              totals match the decoded sample counts, the
                              layer split matches kernel-mode/heap-bounds
                              classification, and the salvage panel
                              re-derives from the manifest's own entries.
VP111  arena-consistency     A compiled code-map arena
                              (``jit-maps.arena``) is a derived cache of
                              the text maps: it must validate (magic,
                              version, checksum), its recorded source
                              digests must match the map files on disk,
                              and its epoch set / per-epoch records must
                              equal what the maps declare.  The loaders
                              fall back to text on any mismatch, so a
                              violation is never a wrong report — but it
                              is a stale or torn artifact that silently
                              forfeits the zero-copy fast path.

VP112  domain-isolation       In a multi-domain (fleet) session the
                              per-domain sub-sessions must be an exact
                              partition of the root stream, every record
                              in ``dom<N>/`` must carry tag N, and a
                              domain's quarantined epochs must be
                              justified by that domain's *own* artifacts
                              — salvage of one guest never leaks into a
                              sibling's accounting.

A session with a salvage manifest is *expected* to have gaps, so the
damage rules report salvage-accounted losses at INFO instead of
WARNING/ERROR (VP102 gaps covered by quarantined epochs, VP103 walks
blocked at a quarantine barrier, VP106 tags beyond the newest surviving
map but within ``top_epoch``).  Unaccounted damage keeps its severity.

Rules operate on :class:`~repro.statcheck.artifacts.SessionArtifacts`
(raw records, no runtime validation) so that corrupt data reaches them
instead of raising on load.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import AnalysisError, CodeMapError, SampleFormatError
from repro.metrics.build import salvage_panel, sample_layer
from repro.metrics.model import SUMMARY_NAME, SessionSummary
from repro.profiling.record_codec import probe_sample_file
from repro.statcheck.artifacts import (
    MAP_DIR_NAME,
    QUARANTINE_DIR_NAME,
    SALVAGE_NAME,
    SAMPLE_DIR_NAME,
    SessionArtifacts,
)
from repro.statcheck.findings import Finding, Severity
from repro.statcheck.rules import rule
from repro.viprof.codemap import (
    RESOLVE_BLOCKED,
    CodeMap,
    CodeMapIndex,
    CodeMapRecord,
    map_files,
)

__all__ = [
    "check_map_overlap",
    "check_epoch_gap",
    "check_orphan_samples",
    "check_signature_collision",
    "check_stale_moved_flag",
    "check_epoch_tags",
    "check_salvage_manifest",
    "check_quarantine_isolation",
    "check_loss_accounting",
    "check_summary_consistency",
    "check_arena_consistency",
    "check_domain_isolation",
]


@rule(
    "VP101", "map-overlap", Severity.ERROR,
    "records within one epoch's map must cover disjoint address ranges",
)
def check_map_overlap(arts: SessionArtifacts) -> Iterator[Finding]:
    for epoch in arts.epochs:
        # Sweep by start: each record overlaps every earlier one still
        # open at its start, so nested records report every pair.
        open_: list[CodeMapRecord] = []
        for b in sorted(arts.maps[epoch].records, key=_span):
            open_ = [a for a in open_ if a.end > b.address]
            for a in open_:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP101",
                    artifact=arts.map_label(epoch),
                    location=f"epoch {epoch}",
                    message=(
                        f"records {a.name!r} [{a.address:#x},{a.end:#x}) "
                        f"and {b.name!r} [{b.address:#x},{b.end:#x}) "
                        "overlap"
                    ),
                )
            open_.append(b)


def _span(r: CodeMapRecord) -> tuple[int, int]:
    return r.address, r.end


@rule(
    "VP102", "epoch-gap", Severity.WARNING,
    "epoch chain must be contiguous: a map is written at every GC",
)
def check_epoch_gap(arts: SessionArtifacts) -> Iterator[Finding]:
    epochs = arts.epochs
    quarantined = set(arts.quarantined_epochs)
    for prev, cur in zip(epochs, epochs[1:]):
        if cur != prev + 1:
            missing = cur - prev - 1
            gap = set(range(prev + 1, cur))
            if gap <= quarantined:
                # Salvage already fenced these epochs off; the loss is
                # accounted, not a new integrity problem.
                yield Finding(
                    severity=Severity.INFO,
                    rule_id="VP102",
                    artifact=str(arts.session_dir),
                    location=f"epochs {prev}..{cur}",
                    message=(
                        f"epoch chain jumps from {prev} to {cur}: "
                        f"{missing} map(s) quarantined by salvage "
                        "(accounted in salvage.json)"
                    ),
                )
                continue
            yield Finding(
                severity=Severity.WARNING,
                rule_id="VP102",
                artifact=str(arts.session_dir),
                location=f"epochs {prev}..{cur}",
                message=(
                    f"epoch chain jumps from {prev} to {cur}: "
                    f"{missing} map(s) missing — compilations from the "
                    "missing epoch(s) are unattributable"
                ),
            )


@rule(
    "VP103", "orphan-sample", Severity.ERROR,
    "every VM-heap sample must resolve in some map via the backward walk",
)
def check_orphan_samples(arts: SessionArtifacts) -> Iterator[Finding]:
    reg = arts.registration
    if reg is None:
        if arts.sample_files and arts.maps:
            yield Finding(
                severity=Severity.INFO,
                rule_id="VP103",
                artifact=str(arts.session_dir),
                location="meta.json",
                message=(
                    "no VM heap registration in session metadata; "
                    "orphan-sample check skipped"
                ),
            )
        return
    if not arts.maps:
        return
    index = _walk_index(arts)
    heap = [
        [(i, s) for i, s in enumerate(sf.samples)
         if sample_layer(s, reg) == "jit"]
        for sf in arts.sample_files
    ]
    hits = index.resolve_keys(
        (s.epoch, s.pc) for samples in heap for _, s in samples
    )
    for sf, samples in zip(arts.sample_files, heap):
        blocked = 0
        for i, s in samples:
            hit = hits[(s.epoch, s.pc)]
            if hit is RESOLVE_BLOCKED:
                blocked += 1
            elif hit is None:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP103",
                    artifact=str(sf.path),
                    location=f"sample {i}",
                    message=(
                        f"heap sample pc={s.pc:#x} (epoch {s.epoch}) "
                        "resolves in no code map via the backward walk"
                    ),
                )
        if blocked:
            yield Finding(
                severity=Severity.INFO,
                rule_id="VP103",
                artifact=str(sf.path),
                location="-",
                message=(
                    f"{blocked} heap sample(s) blocked at a quarantined "
                    "epoch during the backward walk (accounted by "
                    "salvage.json; resolved as (unresolved jit) in "
                    "degraded reports)"
                ),
            )


def _walk_index(arts: SessionArtifacts) -> CodeMapIndex:
    """The session's maps as the reports' :class:`CodeMapIndex`, with the
    salvage manifest's quarantined epochs as barriers.

    A quarantined epoch stays a barrier even when a healthy map shadows
    it (VP108's finding), so that map is left out.  Overlapping records
    (VP101's finding) cover the union of their ranges.
    """
    quarantined = set(arts.quarantined_epochs)
    return CodeMapIndex(
        {
            epoch: CodeMap(epoch, _union(art.records))
            for epoch, art in arts.maps.items()
            if epoch not in quarantined
        },
        quarantined=quarantined,
    )


def _union(records: Iterable[CodeMapRecord]) -> list[CodeMapRecord]:
    """Disjoint records covering exactly the union of ``records``'
    ranges; each merged run keeps its first record's identity."""
    merged: list[CodeMapRecord] = []
    for r in sorted(records, key=_span):
        if merged and r.address < merged[-1].end:
            last = merged[-1]
            if r.end > last.end:
                merged[-1] = dataclasses.replace(
                    last, size=r.end - last.address
                )
        else:
            merged.append(r)
    return merged


@rule(
    "VP104", "signature-collision", Severity.ERROR,
    "JIT map signatures must not collide with boot-image (RVM.map) symbols",
)
def check_signature_collision(arts: SessionArtifacts) -> Iterator[Finding]:
    if arts.boot_map is None:
        return
    boot_names = {e.name for e in arts.boot_map.entries}
    for epoch in arts.epochs:
        for r in arts.maps[epoch].records:
            if r.name in boot_names:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP104",
                    artifact=arts.map_label(epoch),
                    location=f"epoch {epoch}",
                    message=(
                        f"JIT record {r.name!r} at {r.address:#x} collides "
                        "with a boot-image symbol: JIT.App and RVM.map "
                        "attributions become indistinguishable"
                    ),
                )


@rule(
    "VP105", "stale-moved-flag", Severity.ERROR,
    "a moved-flagged record's signature must appear in an earlier epoch",
)
def check_stale_moved_flag(arts: SessionArtifacts) -> Iterator[Finding]:
    seen: set[str] = set()
    for epoch in arts.epochs:
        art = arts.maps[epoch]
        for r in art.records:
            if r.moved and r.name not in seen:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP105",
                    artifact=arts.map_label(epoch),
                    location=f"epoch {epoch}",
                    message=(
                        f"record {r.name!r} at {r.address:#x} is flagged "
                        "as GC-moved but its signature appears in no "
                        "earlier epoch map (stale moved-flag)"
                    ),
                )
        seen.update(r.name for r in art.records)


@rule(
    "VP106", "epoch-tag", Severity.ERROR,
    "sample epoch tags must be valid, monotonic in time, and within the "
    "session's epoch range",
)
def check_epoch_tags(arts: SessionArtifacts) -> Iterator[Finding]:
    max_epoch = max(arts.epochs) if arts.maps else None
    salvage_top = None
    if isinstance(arts.salvage, dict):
        top = arts.salvage.get("top_epoch")
        if isinstance(top, int):
            salvage_top = top
    for sf in arts.sample_files:
        # GC epochs are per-VM counters: in a domain-tagged (fleet) file
        # each guest's tag stream is monotonic on its own, so track one
        # (epoch, cycle) cursor per domain — interleaving is not a
        # regression.  Untagged files are one stream (cursor key None).
        prev: dict[int | None, tuple[int, int]] = {}
        beyond = 0
        beyond_max = -1
        for i, s in enumerate(sf.samples):
            if s.epoch < -1:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP106",
                    artifact=str(sf.path),
                    location=f"sample {i}",
                    message=f"invalid epoch tag {s.epoch}",
                )
                continue
            if s.epoch < 0:
                continue  # stock OProfile sample: no epoch concept
            stream = sf.domain_ids[i] if sf.domain_ids is not None else None
            cursor = prev.get(stream)
            if (
                cursor is not None
                and s.cycle >= cursor[1]
                and s.epoch < cursor[0]
            ):
                dom = "" if stream is None else f" (dom{stream})"
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP106",
                    artifact=str(sf.path),
                    location=f"sample {i}",
                    message=(
                        f"epoch tag regresses from {cursor[0]} to "
                        f"{s.epoch} while time advances (cycle "
                        f"{cursor[1]} -> {s.cycle}){dom}: GC epochs are "
                        "monotonic"
                    ),
                )
            prev[stream] = (s.epoch, s.cycle)
            if max_epoch is not None and s.epoch > max_epoch:
                beyond += 1
                beyond_max = max(beyond_max, s.epoch)
        if beyond:
            if salvage_top is not None and beyond_max <= salvage_top:
                # The lost tail epochs are inside the salvage manifest's
                # fenced range: the loss is accounted, not a surprise.
                yield Finding(
                    severity=Severity.INFO,
                    rule_id="VP106",
                    artifact=str(sf.path),
                    location="-",
                    message=(
                        f"{beyond} sample(s) tagged with epochs beyond "
                        f"the newest surviving map (epoch {max_epoch}) "
                        f"but within the salvaged top epoch "
                        f"({salvage_top}); accounted by salvage.json"
                    ),
                )
                continue
            yield Finding(
                severity=Severity.WARNING,
                rule_id="VP106",
                artifact=str(sf.path),
                location="-",
                message=(
                    f"{beyond} sample(s) tagged with epochs beyond the "
                    f"newest map (epoch {max_epoch}): final map flush "
                    "may be missing"
                ),
            )


# ----------------------------------------------------------------------
# Salvage-manifest rules (VP107-VP109): validate `viprof recover` output.
# ----------------------------------------------------------------------

_SALVAGE_ACTIONS = ("intact", "truncated", "quarantined")


def _salvage_entries(
    arts: SessionArtifacts,
) -> tuple[list[dict], list[dict]] | None:
    """The manifest's (sample_files, maps) entry lists, or None when the
    manifest is absent or structurally unusable (VP107 reports the
    latter; the other salvage rules just skip)."""
    if not isinstance(arts.salvage, dict):
        return None
    samples = arts.salvage.get("sample_files")
    maps = arts.salvage.get("maps")
    if not isinstance(samples, list) or not isinstance(maps, list):
        return None
    if not all(isinstance(e, dict) for e in samples + maps):
        return None
    return samples, maps


def _quarantine_files(arts: SessionArtifacts) -> list[Path]:
    """Every file sitting in a quarantine subdirectory."""
    found: list[Path] = []
    for sub in (SAMPLE_DIR_NAME, MAP_DIR_NAME):
        qdir = arts.session_dir / sub / QUARANTINE_DIR_NAME
        if qdir.is_dir():
            found.extend(p for p in sorted(qdir.iterdir()) if p.is_file())
    return found


@rule(
    "VP107", "salvage-manifest", Severity.ERROR,
    "a salvage manifest must agree with the on-disk session state",
)
def check_salvage_manifest(arts: SessionArtifacts) -> Iterator[Finding]:
    manifest_label = str(arts.session_dir / "salvage.json")
    if arts.salvage is None:
        # No manifest: quarantine directories must not exist — an
        # artifact was set aside with no record of why.
        for p in _quarantine_files(arts):
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP107",
                artifact=str(p),
                location="-",
                message=(
                    "quarantined artifact without a salvage manifest: "
                    "no record of what was lost or why"
                ),
            )
        return
    entries = _salvage_entries(arts)
    if entries is None:
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP107",
            artifact=manifest_label,
            location="-",
            message="malformed salvage manifest structure",
        )
        return
    samples, maps = entries
    version = arts.salvage.get("version")
    if version != 1:
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP107",
            artifact=manifest_label,
            location="version",
            message=f"unsupported salvage manifest version {version!r}",
        )
    listed: set[Path] = set()
    for i, e in enumerate(samples + maps):
        rel = e.get("path")
        loc = f"entry {i}"
        if not isinstance(rel, str):
            yield Finding(
                severity=Severity.ERROR, rule_id="VP107",
                artifact=manifest_label, location=loc,
                message=f"entry has no usable path: {e!r}",
            )
            continue
        path = arts.session_dir / rel
        listed.add(path)
        if not path.is_file():
            yield Finding(
                severity=Severity.ERROR, rule_id="VP107",
                artifact=manifest_label, location=loc,
                message=f"manifest names {rel!r} but no such file exists",
            )
        if e.get("action") not in _SALVAGE_ACTIONS:
            yield Finding(
                severity=Severity.ERROR, rule_id="VP107",
                artifact=manifest_label, location=loc,
                message=f"unknown salvage action {e.get('action')!r}",
            )
    # Every artifact on disk must be accounted for.
    on_disk: list[Path] = list(_quarantine_files(arts))
    sample_dir = arts.session_dir / SAMPLE_DIR_NAME
    if sample_dir.is_dir():
        on_disk.extend(sorted(sample_dir.glob("*.samples")))
    map_dir = arts.session_dir / MAP_DIR_NAME
    if map_dir.is_dir():
        on_disk.extend(path for _, path in map_files(map_dir))
    for p in on_disk:
        if p not in listed:
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP107",
                artifact=str(p),
                location="-",
                message="artifact not accounted for by the salvage manifest",
            )
    # Survivor claims must hold: a salvaged (non-quarantined) sample file
    # is record-aligned and holds exactly the record count claimed.
    for e in samples:
        rel, action = e.get("path"), e.get("action")
        if not isinstance(rel, str) or action not in ("intact", "truncated"):
            continue
        path = arts.session_dir / rel
        if not path.is_file():
            continue
        try:
            probe = probe_sample_file(path)
        except SampleFormatError as exc:  # header damage / torn header
            yield Finding(
                severity=Severity.ERROR, rule_id="VP107",
                artifact=str(path), location="-",
                message=(
                    f"manifest claims {action!r} but the file does not "
                    f"parse: {exc}"
                ),
            )
            continue
        if probe.trailing_bytes:
            yield Finding(
                severity=Severity.ERROR, rule_id="VP107",
                artifact=str(path), location="-",
                message=(
                    f"manifest claims {action!r} but the file still ends "
                    f"in a torn record ({probe.trailing_bytes} trailing "
                    "bytes)"
                ),
            )
        kept = e.get("records_kept")
        if isinstance(kept, int) and probe.n_records != kept:
            yield Finding(
                severity=Severity.ERROR, rule_id="VP107",
                artifact=str(path), location="-",
                message=(
                    f"manifest claims {kept} records kept but the file "
                    f"holds {probe.n_records}"
                ),
            )


@rule(
    "VP108", "quarantine-isolation", Severity.ERROR,
    "quarantined epochs must exactly cover the gaps salvage fenced off",
)
def check_quarantine_isolation(arts: SessionArtifacts) -> Iterator[Finding]:
    entries = _salvage_entries(arts)
    if entries is None:
        return
    manifest_label = str(arts.session_dir / "salvage.json")
    _, maps = entries
    quarantined = set(arts.quarantined_epochs)
    healthy = set(arts.maps)
    # A quarantined map must never be shadowed by a healthy map for the
    # same epoch: resolution would silently trust a survivor that the
    # manifest says is suspect.
    for e in maps:
        epoch, action = e.get("epoch"), e.get("action")
        if not isinstance(epoch, int):
            continue
        if action == "quarantined" and epoch in healthy:
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP108",
                artifact=arts.map_label(epoch),
                location=f"epoch {epoch}",
                message=(
                    f"epoch {epoch} has both a quarantined map and a "
                    "healthy map: quarantine is not isolated"
                ),
            )
        if action == "quarantined" and epoch not in quarantined:
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP108",
                artifact=manifest_label,
                location=f"epoch {epoch}",
                message=(
                    f"map for epoch {epoch} was quarantined but the epoch "
                    "is not in quarantined_epochs: the backward walk "
                    "would not treat it as a barrier"
                ),
            )
    top = arts.salvage.get("top_epoch") if isinstance(arts.salvage, dict) \
        else None
    if isinstance(top, int):
        expected = {e for e in range(top + 1) if e not in healthy}
        if quarantined != expected:
            missing = sorted(expected - quarantined)
            extra = sorted(quarantined - expected)
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"spurious {extra}")
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP108",
                artifact=manifest_label,
                location="quarantined_epochs",
                message=(
                    "quarantined_epochs must be exactly the epochs in "
                    f"0..{top} without a healthy map: {'; '.join(detail)}"
                ),
            )


@rule(
    "VP109", "loss-accounting", Severity.ERROR,
    "the salvage manifest's loss numbers must add up exactly",
)
def check_loss_accounting(arts: SessionArtifacts) -> Iterator[Finding]:
    entries = _salvage_entries(arts)
    if entries is None:
        return
    manifest_label = str(arts.session_dir / "salvage.json")
    samples, _ = entries
    for i, e in enumerate(samples):
        rel, action = e.get("path"), e.get("action")
        kept = e.get("records_kept")
        dropped = e.get("bytes_dropped")
        loc = f"sample entry {i} ({rel})"
        if action == "intact" and dropped not in (0, None):
            yield Finding(
                severity=Severity.ERROR, rule_id="VP109",
                artifact=manifest_label, location=loc,
                message=f"intact file claims {dropped} bytes dropped",
            )
        if action == "quarantined" and kept not in (0, None):
            yield Finding(
                severity=Severity.ERROR, rule_id="VP109",
                artifact=manifest_label, location=loc,
                message=(
                    f"quarantined file claims {kept} records kept; "
                    "nothing survives a quarantine"
                ),
            )
        if action != "truncated" or not isinstance(rel, str):
            continue
        path = arts.session_dir / rel
        if not path.is_file():
            continue  # VP107 reports the missing file
        try:
            probe = probe_sample_file(path)
        except SampleFormatError:
            continue  # VP107 reports the unparseable file
        rsize = probe.record_size
        if not isinstance(dropped, int) or not 1 <= dropped < rsize:
            yield Finding(
                severity=Severity.ERROR, rule_id="VP109",
                artifact=manifest_label, location=loc,
                message=(
                    f"a truncation drops a strict sub-record tail: "
                    f"bytes_dropped={dropped!r} is not in 1..{rsize - 1}"
                ),
            )
        torn_at = e.get("torn_at")
        expected_cut = probe.data_start + probe.n_records * rsize
        if torn_at != expected_cut:
            yield Finding(
                severity=Severity.ERROR, rule_id="VP109",
                artifact=manifest_label, location=loc,
                message=(
                    f"torn_at={torn_at!r} does not sit at the last "
                    f"whole-record boundary ({expected_cut})"
                ),
            )
    top = arts.salvage.get("top_epoch") if isinstance(arts.salvage, dict) \
        else None
    if isinstance(top, int):
        max_map = max(arts.epochs, default=-1)
        max_tag = -1
        for sf in arts.sample_files:
            for s in sf.samples:
                if s.epoch > max_tag:
                    max_tag = s.epoch
        evident = max(max_map, max_tag)
        if evident > top:
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP109",
                artifact=manifest_label,
                location="top_epoch",
                message=(
                    f"surviving artifacts mention epoch {evident} but "
                    f"top_epoch is {top}: losses above top_epoch are "
                    "unaccounted"
                ),
            )


# ----------------------------------------------------------------------
# Summary-consistency rule (VP110): validate the unified metrics model's
# embedded summaries against the artifacts they claim to describe.
# ----------------------------------------------------------------------


def _decoded_event_totals(arts: SessionArtifacts) -> dict[str, int]:
    """Per-event decoded sample counts — the ground truth an embedded
    summary's ``totals`` must reproduce (unreadable files are skipped
    here exactly as the summary builders skip them; VP100 reports
    those)."""
    totals: dict[str, int] = {}
    for sf in arts.sample_files:
        totals[sf.event_name] = totals.get(sf.event_name, 0) + len(sf.samples)
    return totals


def _mismatch(
    artifact: str, location: str, what: str, claimed: object, actual: object
) -> Finding:
    return Finding(
        severity=Severity.ERROR,
        rule_id="VP110",
        artifact=artifact,
        location=location,
        message=(
            f"summary claims {what} = {claimed!r} but the artifacts "
            f"hold {actual!r}"
        ),
    )


def _check_session_summary(arts: SessionArtifacts) -> Iterator[Finding]:
    path = arts.session_dir / SUMMARY_NAME
    if not path.is_file():
        return
    label = str(path)
    try:
        summary = SessionSummary.load(path)
    except AnalysisError as exc:
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP110",
            artifact=label,
            location="-",
            message=f"embedded summary does not parse: {exc}",
        )
        return

    # Per-event totals vs the records actually on disk.
    actual_totals = _decoded_event_totals(arts)
    for ev in sorted(set(summary.totals) | set(actual_totals)):
        claimed = summary.totals.get(ev, 0)
        actual = actual_totals.get(ev, 0)
        if claimed != actual:
            yield _mismatch(
                label, f"totals[{ev}]", f"{ev} samples", claimed, actual
            )

    reg = arts.registration
    on_disk = Counter(
        sample_layer(s, reg) for sf in arts.sample_files for s in sf.samples
    )
    kernel, jit, user = on_disk["kernel"], on_disk["jit"], on_disk["user"]
    total = kernel + jit + user

    collection = summary.panel("collection")
    if collection:
        checks: list[tuple[str, object, int]] = [
            ("samples_logged", collection.get("samples_logged"), total),
            ("kernel_samples", collection.get("kernel_samples"), kernel),
        ]
        if reg is not None:
            checks.append(
                ("jit_samples", collection.get("jit_samples"), jit)
            )
            file_s = collection.get("file_samples")
            anon_s = collection.get("anon_samples")
            if isinstance(file_s, int) and isinstance(anon_s, int):
                checks.append(
                    ("file_samples+anon_samples", file_s + anon_s, user)
                )
        for name, claimed, actual in checks:
            if isinstance(claimed, int) and claimed != actual:
                yield _mismatch(
                    label, f"panels.collection.{name}", name, claimed, actual
                )

    layers = summary.panel("layers")
    if layers:
        layer_checks: list[tuple[str, object, int]] = [
            ("total", layers.get("total"), total),
            ("kernel", layers.get("kernel"), kernel),
        ]
        if reg is not None:
            layer_checks.append(("jit", layers.get("jit"), jit))
            layer_checks.append(("user", layers.get("user"), user))
        for name, claimed, actual in layer_checks:
            if isinstance(claimed, int) and claimed != actual:
                yield _mismatch(
                    label, f"panels.layers.{name}", f"layer {name!r}",
                    claimed, actual,
                )
        jit_detail = summary.panel("jit")
        claimed_jit = layers.get("jit")
        if jit_detail and isinstance(claimed_jit, int):
            split = sum(
                v for v in (
                    jit_detail.get("resolved"),
                    jit_detail.get("unresolved"),
                    jit_detail.get("blocked_at_quarantine"),
                )
                if isinstance(v, int)
            )
            if split != claimed_jit:
                yield _mismatch(
                    label, "panels.jit",
                    "resolved+unresolved+blocked_at_quarantine",
                    split, claimed_jit,
                )

    # The summary's salvage panel must re-derive from the manifest.
    claimed_salvage = summary.panel("salvage")
    if claimed_salvage:
        if not isinstance(arts.salvage, dict):
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP110",
                artifact=label,
                location="panels.salvage",
                message=(
                    "summary carries a salvage panel but the session has "
                    "no salvage manifest"
                ),
            )
        else:
            expected = salvage_panel(arts.salvage)
            for key in sorted(set(claimed_salvage) | set(expected)):
                if claimed_salvage.get(key) != expected.get(key):
                    yield _mismatch(
                        label, f"panels.salvage.{key}", key,
                        claimed_salvage.get(key), expected.get(key),
                    )


def _check_salvage_summary(arts: SessionArtifacts) -> Iterator[Finding]:
    """The summary block ``viprof recover`` embeds in ``salvage.json``
    must re-derive from the manifest's own per-artifact entries (older
    manifests without one are fine)."""
    if not isinstance(arts.salvage, dict):
        return
    embedded = arts.salvage.get("summary")
    if embedded is None:
        return
    label = str(arts.session_dir / "salvage.json")
    if not isinstance(embedded, dict):
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP110",
            artifact=label,
            location="summary",
            message=f"malformed embedded summary: {embedded!r}",
        )
        return
    version = embedded.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP110",
            artifact=label,
            location="summary.schema_version",
            message=f"embedded summary has no schema version: {version!r}",
        )
    panel = embedded.get("salvage")
    if not isinstance(panel, dict):
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP110",
            artifact=label,
            location="summary.salvage",
            message=f"malformed embedded salvage panel: {panel!r}",
        )
        return
    expected = salvage_panel(arts.salvage)
    for key in sorted(set(panel) | set(expected)):
        if panel.get(key) != expected.get(key):
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP110",
                artifact=label,
                location=f"summary.salvage.{key}",
                message=(
                    f"embedded salvage panel claims {key} = "
                    f"{panel.get(key)!r} but the manifest's entries sum "
                    f"to {expected.get(key)!r}"
                ),
            )


@rule(
    "VP110", "summary-consistency", Severity.ERROR,
    "an embedded session summary must agree with the artifacts on disk",
)
def check_summary_consistency(arts: SessionArtifacts) -> Iterator[Finding]:
    yield from _check_session_summary(arts)
    yield from _check_salvage_summary(arts)


@rule(
    "VP111", "arena-consistency", Severity.ERROR,
    "a compiled code-map arena must validate and match its source maps",
)
def check_arena_consistency(arts: SessionArtifacts) -> Iterator[Finding]:
    """A ``jit-maps.arena`` file, when present, must be the compiled
    image of the epoch maps sitting next to it — validated three ways:
    internal integrity (checksum), the recorded source digests, and a
    full epoch/record comparison against the text maps.  Absence is
    fine (the arena is optional); presence with any mismatch is an
    ERROR, because whoever checked the artifact in believed it matched.
    """
    from repro.viprof.arena import ArenaError, CodeMapArena, arena_path_for

    map_dir = arts.session_dir / MAP_DIR_NAME
    arena_path = arena_path_for(map_dir)
    if not arena_path.is_file():
        return
    label = str(arena_path)
    try:
        arena = CodeMapArena.open(arena_path)
    except ArenaError as e:
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP111",
            artifact=label,
            location="-",
            message=f"arena does not validate: {e}",
        )
        return
    try:
        yield from _arena_vs_maps(arena, arts, label, map_dir)
    finally:
        arena.close()


def _arena_vs_maps(
    arena, arts: SessionArtifacts, label: str, map_dir
) -> Iterator[Finding]:
    """VP111 body: compare a validated open arena against the text maps."""
    from repro.viprof.arena import ArenaError

    for reason in arena.stale_reasons(map_dir):
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP111",
            artifact=label,
            location="sources",
            message=f"stale arena: {reason}",
        )
    arena_epochs = set(arena.epochs)
    map_epochs = set(arts.maps)
    for epoch in sorted(arena_epochs - map_epochs):
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP111",
            artifact=label,
            location=f"epoch {epoch}",
            message="arena holds an epoch with no map file on disk",
        )
    for epoch in sorted(map_epochs - arena_epochs):
        yield Finding(
            severity=Severity.ERROR,
            rule_id="VP111",
            artifact=label,
            location=f"epoch {epoch}",
            message=f"map file {arts.map_label(epoch)} is missing "
            "from the arena",
        )
    for epoch in sorted(arena_epochs & map_epochs):
        try:
            packed = arena.epoch_map(epoch).records
        except (ArenaError, CodeMapError) as e:
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP111",
                artifact=label,
                location=f"epoch {epoch}",
                message=f"arena records do not materialize: {e}",
            )
            continue
        on_disk = tuple(sorted(arts.maps[epoch].records))
        if len(packed) != len(on_disk):
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP111",
                artifact=label,
                location=f"epoch {epoch}",
                message=(
                    f"arena packs {len(packed)} records but "
                    f"{arts.map_label(epoch)} declares {len(on_disk)}"
                ),
            )
        elif packed != on_disk:
            diff = next(
                i for i, (a, b) in enumerate(zip(packed, on_disk))
                if a != b
            )
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP111",
                artifact=label,
                location=f"epoch {epoch}",
                message=(
                    f"arena record {diff} ({packed[diff].name!r}) "
                    f"disagrees with the map file "
                    f"({on_disk[diff].name!r})"
                ),
            )


# ----------------------------------------------------------------------
# Fleet rule (VP112): cross-domain isolation of a multi-domain session.
# ----------------------------------------------------------------------


def _record_key(s) -> tuple:
    """Core identity of one decoded sample record."""
    return (s.pc, s.cycle, s.task_id, s.kernel_mode, s.epoch)


def _epoch_evidence(arts: SessionArtifacts) -> set[int]:
    """Epochs one session's own artifacts mention (maps + sample tags)."""
    evidence = set(arts.maps)
    for sf in arts.sample_files:
        evidence.update(s.epoch for s in sf.samples if s.epoch >= 0)
    return evidence


@rule(
    "VP112", "domain-isolation", Severity.ERROR,
    "per-domain sub-sessions must exactly partition the fleet root "
    "stream, own every record they hold, and justify their quarantined "
    "epochs with their own artifacts",
)
def check_domain_isolation(arts: SessionArtifacts) -> Iterator[Finding]:
    """Cross-domain invariants of a many-guest (fleet) session root.

    The per-domain deep checks (VP101..VP111) run when each ``dom<N>/``
    sub-session is linted on its own; this rule holds the *seams*
    between them:

    * every record inside ``dom<N>/`` carries domain tag N — a foreign
      tag means one guest's stream bled into another's sub-session;
    * per event, the root stream's records tagged N equal dom N's
      records, in order — the sub-sessions are an exact partition of
      what dom0's daemon drained, nothing duplicated, dropped, or
      re-homed (and every tag in the root has a sub-session);
    * a domain's quarantined epochs are justified by that domain's own
      artifacts — a quarantine copied from a sibling's salvage (epoch
      shadowed by a healthy map, or evident in no artifact of its own)
      would silently discard healthy attributions.

    Single-stack sessions (no ``dom<N>/`` sub-directories) are exempt.
    """
    if not arts.domains:
        return

    # --- tag ownership ------------------------------------------------
    for did, sub in sorted(arts.domains.items()):
        for sf in sub.sample_files:
            if sf.domain_ids is None:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP112",
                    artifact=str(sf.path),
                    location="-",
                    message=(
                        f"dom{did}'s sample file is not domain-tagged: "
                        "ownership cannot be established"
                    ),
                )
                continue
            foreign = [
                (i, t) for i, t in enumerate(sf.domain_ids) if t != did
            ]
            if foreign:
                first_i, first_t = foreign[0]
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP112",
                    artifact=str(sf.path),
                    location=f"sample {first_i}",
                    message=(
                        f"{len(foreign)} record(s) tagged for other "
                        f"domains inside dom{did}'s sub-session (first "
                        f"is tagged dom{first_t}): one guest's stream "
                        "bled into another's"
                    ),
                )

    # --- exact partition of the root stream ---------------------------
    root_by_event: dict[str, dict[int, list[tuple]]] = {}
    untagged_events: set[str] = set()
    for sf in arts.sample_files:
        if sf.domain_ids is None:
            untagged_events.add(sf.event_name)
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP112",
                artifact=str(sf.path),
                location="-",
                message=(
                    "fleet root stream is not domain-tagged: the "
                    "per-domain partition cannot be checked"
                ),
            )
            continue
        per = root_by_event.setdefault(sf.event_name, {})
        for s, t in zip(sf.samples, sf.domain_ids):
            per.setdefault(t, []).append(_record_key(s))

    for ev, per in sorted(root_by_event.items()):
        for t in sorted(set(per) - set(arts.domains)):
            yield Finding(
                severity=Severity.ERROR,
                rule_id="VP112",
                artifact=str(arts.session_dir),
                location=ev,
                message=(
                    f"root stream holds {len(per[t])} record(s) tagged "
                    f"dom{t} but the session has no dom{t}/ sub-session"
                ),
            )

    for did, sub in sorted(arts.domains.items()):
        dom_by_event: dict[str, list[tuple]] = {}
        for sf in sub.sample_files:
            dom_by_event.setdefault(sf.event_name, []).extend(
                _record_key(s) for s in sf.samples
            )
        events = set(dom_by_event) | {
            ev for ev, per in root_by_event.items() if did in per
        }
        for ev in sorted(events - untagged_events):
            want = root_by_event.get(ev, {}).get(did, [])
            got = dom_by_event.get(ev)
            if got is None and ev not in root_by_event:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP112",
                    artifact=str(sub.session_dir),
                    location=ev,
                    message=(
                        f"dom{did} holds {ev} records but the root "
                        "stream has no file for that event"
                    ),
                )
                continue
            got = got or []
            if want != got:
                diverge = next(
                    (
                        i
                        for i, (a, b) in enumerate(zip(want, got))
                        if a != b
                    ),
                    min(len(want), len(got)),
                )
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP112",
                    artifact=str(sub.session_dir),
                    location=ev,
                    message=(
                        f"dom{did}'s records do not partition the root "
                        f"stream for {ev}: root holds {len(want)} "
                        f"record(s) tagged dom{did}, the sub-session "
                        f"holds {len(got)} (first divergence at record "
                        f"{diverge})"
                    ),
                )

    # --- quarantines justified by the domain's own artifacts ----------
    evidence = {
        did: _epoch_evidence(sub) for did, sub in arts.domains.items()
    }
    for did, sub in sorted(arts.domains.items()):
        quarantined = sub.quarantined_epochs
        if not quarantined:
            continue
        label = str(sub.session_dir / SALVAGE_NAME)
        own_max = max(evidence[did], default=-1)
        for q in sorted(set(quarantined)):
            if q in sub.maps:
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP112",
                    artifact=label,
                    location=f"epoch {q}",
                    message=(
                        f"dom{did} quarantines epoch {q} yet holds a "
                        "healthy map for it: the quarantine is not "
                        "justified by this domain's own damage "
                        "(salvage leaked across domains)"
                    ),
                )
            elif q > own_max:
                culprits = sorted(
                    o
                    for o, ev_set in evidence.items()
                    if o != did and max(ev_set, default=-1) >= q
                )
                hint = (
                    f"; epoch {q} is evident in dom{culprits[0]}'s "
                    "artifacts — the quarantine leaked across domains"
                    if culprits
                    else ""
                )
                yield Finding(
                    severity=Severity.ERROR,
                    rule_id="VP112",
                    artifact=label,
                    location=f"epoch {q}",
                    message=(
                        f"dom{did} quarantines epoch {q} but none of "
                        f"its own artifacts mention any epoch >= {q}"
                        f"{hint}"
                    ),
                )

"""Crash-consistent session recovery (``viprof recover``).

A profiling session killed mid-run leaves three kinds of damage, one per
layer of the collection stack:

* **torn sample files** — the writer died mid-spill, so the file ends in
  a partial record (``writer.spill``);
* **malformed epoch maps** — the agent died mid-write of a map file
  (``codemap.write``);
* **missing tail state** — the process died before the closing epoch's
  map was emitted or before the final drain, so whole epochs of map data
  and buffered samples are simply absent (``agent.map-emit``,
  ``daemon.drain-chunk``, ``session.teardown``).

:func:`salvage_session` repairs what can be repaired and fences off what
cannot:

* torn sample files are truncated at the last whole-record boundary
  (their intact prefix is byte-exact data from the run);
* sample files whose *header* is damaged identify no codec and are moved
  aside into ``samples/quarantine/``;
* malformed map files are moved into ``jit-maps/quarantine/`` — their
  epoch number (from the filename) is remembered;
* every epoch up to the newest epoch the session provably reached
  (healthy maps, quarantined maps, or sample epoch tags) that has no
  healthy map is recorded in ``quarantined_epochs``.

The resulting :class:`SalvageManifest` is written as ``salvage.json`` in
the session directory (version 1, relative paths, no timestamps — the
manifest of a deterministic run is itself deterministic).  The resolution
side then loads the code maps with
``CodeMapIndex.load_dir(map_dir, quarantined=manifest.quarantined_epochs)``
so the backward epoch-walk treats lost epochs as barriers, and runs the
pipeline with ``strict=False`` so blocked samples are *counted* (the
``degraded`` stats) instead of silently misattributed.  Together these
give the recovery guarantee the crash-matrix test
(``tests/integration/test_crash_recovery.py``) asserts: every sample the
recovered report resolves is resolved identically by the undamaged run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CodeMapError, ProfilerError, SampleFormatError
from repro.profiling.record_codec import codec_for_magic, probe_sample_file
from repro.viprof.arena import arena_path_for
from repro.viprof.codemap import CodeMap, map_files

__all__ = [
    "MANIFEST_NAME",
    "QUARANTINE_DIR_NAME",
    "SalvagedSampleFile",
    "SalvagedMap",
    "SalvageManifest",
    "salvage_session",
    "load_manifest",
]

#: The manifest file a salvage run leaves in the session directory.
MANIFEST_NAME = "salvage.json"

#: Subdirectory (of ``samples/`` and ``jit-maps/``) damaged artifacts are
#: moved into.  Both the streaming pipeline (which globs ``*.samples``)
#: and the map loader (which matches ``jit-map.NNNNN`` files) ignore it.
QUARANTINE_DIR_NAME = "quarantine"

#: Manifest schema version.
MANIFEST_VERSION = 1

ACTION_INTACT = "intact"
ACTION_TRUNCATED = "truncated"
ACTION_QUARANTINED = "quarantined"


@dataclass(frozen=True, slots=True)
class SalvagedSampleFile:
    """Outcome for one sample file.

    ``path`` is session-relative (after any quarantine move);
    ``torn_at`` is the byte offset the file was cut at (None unless
    truncated); ``bytes_dropped`` counts bytes lost to truncation or the
    whole file size for a quarantined file.
    """

    path: str
    action: str
    records_kept: int
    bytes_dropped: int
    torn_at: int | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "action": self.action,
            "records_kept": self.records_kept,
            "bytes_dropped": self.bytes_dropped,
            "torn_at": self.torn_at,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SalvagedSampleFile":
        return cls(
            path=d["path"],
            action=d["action"],
            records_kept=d["records_kept"],
            bytes_dropped=d["bytes_dropped"],
            torn_at=d.get("torn_at"),
            reason=d.get("reason"),
        )


@dataclass(frozen=True, slots=True)
class SalvagedMap:
    """Outcome for one epoch-map file (``epoch`` from the filename)."""

    path: str
    action: str
    epoch: int
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "action": self.action,
            "epoch": self.epoch,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SalvagedMap":
        return cls(
            path=d["path"],
            action=d["action"],
            epoch=d["epoch"],
            reason=d.get("reason"),
        )


@dataclass(slots=True)
class SalvageManifest:
    """Everything one salvage pass found, repaired, and fenced off.

    ``top_epoch`` is the newest epoch the session provably reached
    (-1 for a session with no epoch evidence at all);
    ``quarantined_epochs`` are the epochs in ``0..top_epoch`` left
    without a healthy map — the barrier set for the degraded backward
    walk.
    """

    session_dir: Path
    sample_files: list[SalvagedSampleFile] = field(default_factory=list)
    maps: list[SalvagedMap] = field(default_factory=list)
    top_epoch: int = -1
    quarantined_epochs: tuple[int, ...] = ()

    @property
    def damaged(self) -> bool:
        """True when anything needed repair or quarantine."""
        return any(
            e.action != ACTION_INTACT for e in self.sample_files
        ) or any(m.action != ACTION_INTACT for m in self.maps) or bool(
            self.quarantined_epochs
        )

    @property
    def records_dropped_bytes(self) -> int:
        return sum(e.bytes_dropped for e in self.sample_files)

    def to_dict(self) -> dict:
        from repro.metrics.build import salvage_panel
        from repro.metrics.model import SCHEMA_VERSION

        doc = {
            "version": MANIFEST_VERSION,
            "sample_files": [e.to_dict() for e in self.sample_files],
            "maps": [m.to_dict() for m in self.maps],
            "top_epoch": self.top_epoch,
            "quarantined_epochs": list(self.quarantined_epochs),
        }
        # Embedded loss-accounting summary (unified session-metrics
        # model).  Derived from the entries above, so statcheck's VP110
        # can recompute it and flag any disagreement; ignored by
        # from_dict (older manifests without it stay loadable).
        doc["summary"] = {
            "schema_version": SCHEMA_VERSION,
            "salvage": salvage_panel(doc),
        }
        return doc

    @classmethod
    def from_dict(cls, session_dir: Path, d: dict) -> "SalvageManifest":
        version = d.get("version")
        if version != MANIFEST_VERSION:
            raise ProfilerError(
                f"{session_dir / MANIFEST_NAME}: unsupported salvage "
                f"manifest version {version!r}"
            )
        return cls(
            session_dir=session_dir,
            sample_files=[
                SalvagedSampleFile.from_dict(e) for e in d["sample_files"]
            ],
            maps=[SalvagedMap.from_dict(m) for m in d["maps"]],
            top_epoch=d["top_epoch"],
            quarantined_epochs=tuple(d["quarantined_epochs"]),
        )

    def save(self) -> Path:
        path = self.session_dir / MANIFEST_NAME
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def load_manifest(session_dir: Path | str) -> SalvageManifest | None:
    """Load ``salvage.json`` from a session directory (None if absent)."""
    session_dir = Path(session_dir)
    path = session_dir / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        d = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:  # JSON or UTF-8 decode errors
        raise ProfilerError(f"{path}: unreadable salvage manifest: {e}") from None
    try:
        return SalvageManifest.from_dict(session_dir, d)
    except (KeyError, TypeError) as e:
        raise ProfilerError(f"{path}: malformed salvage manifest: {e}") from None


def _quarantine(path: Path, dry_run: bool) -> Path:
    """Move a damaged artifact into its directory's quarantine subdir."""
    qdir = path.parent / QUARANTINE_DIR_NAME
    dest = qdir / path.name
    if not dry_run:
        qdir.mkdir(parents=True, exist_ok=True)
        path.rename(dest)
    return dest


def _salvage_sample_file(
    path: Path, session_dir: Path, dry_run: bool
) -> SalvagedSampleFile:
    try:
        probe = probe_sample_file(path)
    except SampleFormatError as e:
        size = path.stat().st_size
        dest = _quarantine(path, dry_run)
        return SalvagedSampleFile(
            path=str(dest.relative_to(session_dir)),
            action=ACTION_QUARANTINED,
            records_kept=0,
            bytes_dropped=size,
            reason=str(e),
        )
    if probe.torn:
        if not dry_run:
            os.truncate(path, probe.truncate_to)
        return SalvagedSampleFile(
            path=str(path.relative_to(session_dir)),
            action=ACTION_TRUNCATED,
            records_kept=probe.n_records,
            bytes_dropped=probe.trailing_bytes,
            torn_at=probe.truncate_to,
            reason=(
                f"torn record: {probe.trailing_bytes} trailing bytes "
                f"(record size {probe.record_size})"
            ),
        )
    return SalvagedSampleFile(
        path=str(path.relative_to(session_dir)),
        action=ACTION_INTACT,
        records_kept=probe.n_records,
        bytes_dropped=0,
    )


def _salvage_map(
    path: Path, file_epoch: int, session_dir: Path, dry_run: bool
) -> SalvagedMap:
    try:
        CodeMap.load(path)
    except CodeMapError as e:
        dest = _quarantine(path, dry_run)
        return SalvagedMap(
            path=str(dest.relative_to(session_dir)),
            action=ACTION_QUARANTINED,
            epoch=file_epoch,
            reason=str(e),
        )
    return SalvagedMap(
        path=str(path.relative_to(session_dir)),
        action=ACTION_INTACT,
        epoch=file_epoch,
    )


def _max_sample_epoch(
    session_dir: Path, entries: list[SalvagedSampleFile]
) -> int:
    """Newest epoch tag among the salvaged (readable) sample records.

    Reads the record-aligned prefix directly, so it works on a torn file
    that a dry run has diagnosed but not yet truncated.
    """
    top = -1
    epoch_index = 4  # <QIBQq...>: pc, task, kmode, cycle, epoch
    for entry in entries:
        if entry.action == ACTION_QUARANTINED or entry.records_kept == 0:
            continue
        probe = probe_sample_file(session_dir / entry.path)
        codec = codec_for_magic(probe.magic)
        assert codec is not None  # probe validated the magic
        unpack = codec.record_struct.iter_unpack
        with open(probe.path, "rb") as fh:
            fh.seek(probe.data_start)
            remaining = probe.n_records * probe.record_size
            chunk_bytes = 4096 * probe.record_size
            while remaining > 0:
                chunk = fh.read(min(chunk_bytes, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
                for fields in unpack(chunk):
                    if fields[epoch_index] > top:
                        top = fields[epoch_index]
    return top


def salvage_session(
    session_dir: Path | str, dry_run: bool = False
) -> SalvageManifest:
    """Scan a (possibly crash-damaged) session directory and repair it.

    Torn sample files are truncated at the last whole record, sample
    files with damaged headers and malformed epoch maps are moved into
    per-directory ``quarantine/`` subdirectories, and the epochs left
    without a healthy map are recorded as the barrier set for degraded
    resolution.  Writes ``salvage.json`` and returns the manifest.

    ``dry_run`` diagnoses without touching the filesystem (no
    truncations, no moves, no manifest).

    Raises:
        ProfilerError: if ``session_dir`` is not a session directory
            (no sample directory), or a salvage manifest already exists
            (salvage runs once; re-running would double-count damage).
    """
    session_dir = Path(session_dir)
    sample_dir = session_dir / "samples"
    map_dir = session_dir / "jit-maps"
    if not sample_dir.is_dir():
        raise ProfilerError(
            f"{session_dir}: not a session directory "
            "(no samples/ subdirectory)"
        )
    if (session_dir / MANIFEST_NAME).exists():
        raise ProfilerError(
            f"{session_dir}: already salvaged ({MANIFEST_NAME} exists)"
        )

    if not dry_run:
        # The compiled code-map arena (repro.viprof.arena) is a derived
        # cache of the pre-crash map set: after quarantines/truncations
        # it is stale by construction (and a crash at arena.write leaves
        # it torn), so salvage drops it and degraded reports parse the
        # text maps.  It never appears in the manifest — it carries no
        # samples and is rebuilt for free by `viprof index`.
        arena_path_for(map_dir).unlink(missing_ok=True)

    manifest = SalvageManifest(session_dir=session_dir)
    for path in sorted(sample_dir.glob("*.samples")):
        if not path.is_file():
            continue
        manifest.sample_files.append(
            _salvage_sample_file(path, session_dir, dry_run)
        )
    if map_dir.is_dir():
        for epoch, path in map_files(map_dir):
            manifest.maps.append(
                _salvage_map(path, epoch, session_dir, dry_run)
            )

    healthy = {
        m.epoch for m in manifest.maps if m.action == ACTION_INTACT
    }
    evidence = set(healthy)
    evidence.update(
        m.epoch for m in manifest.maps if m.action == ACTION_QUARANTINED
    )
    # In dry-run mode torn files have not actually been truncated, but
    # the epoch scan below only reads whole records, which is exactly the
    # salvaged prefix either way.
    sample_top = _max_sample_epoch(session_dir, manifest.sample_files)
    if sample_top >= 0:
        evidence.add(sample_top)
    manifest.top_epoch = max(evidence) if evidence else -1
    manifest.quarantined_epochs = tuple(
        e for e in range(manifest.top_epoch + 1) if e not in healthy
    )
    if not dry_run:
        manifest.save()
    return manifest

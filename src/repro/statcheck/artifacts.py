"""Tolerant loading of a session directory's profile artifacts.

The analyzer must be able to *look at* corrupt artifacts — that is its
whole point — so this loader reads a session through the runtime's own
readers but stops short of their strict checks.  Map files go through
the one map parser (:func:`repro.viprof.codemap.parse_map`), which
reports every problem instead of raising on the first, and their records
stay raw (``CodeMap`` rejects overlapping records at construction; here
an overlap must surface as a finding, not an exception).  The VM heap
registration comes from the same session-level reader the offline
summary uses (:func:`repro.metrics.build.session_registration`).
Problems that make an artifact unreadable are demoted to ``VP100``
findings so one rotten file never hides the findings in the rest of the
session.

Understood layouts (live session dirs and ``SessionStore`` archives)::

    <session>/jit-maps/jit-map.NNNNN    per-epoch partial code maps
    <session>/samples/<EVENT>.samples   packed sample files
    <session>/meta.json                 archive metadata (optional)
    <session>/summary.json              session summary (optional; where a
                                        live session records its heap
                                        registration)
    <session>/salvage.json              crash-recovery manifest (optional,
                                        written by ``viprof recover``)
    <session>/*/quarantine/             artifacts salvage set aside
    <session>/dom<N>/                   fleet sessions only: one complete
                                        sub-session per guest domain
                                        (loaded recursively)

The salvage manifest is loaded as a raw dict (``SessionArtifacts.salvage``)
so the VP107–VP109 rules can validate its *structure* as well as its
claims; a session that was never salvaged has ``salvage is None``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import SampleFormatError, StatCheckError
from repro.jvm.bootimage import RvmMap, build_boot_image
from repro.metrics.build import session_registration
from repro.profiling.model import RawSample
from repro.profiling.record_codec import open_sample_record_file
from repro.statcheck.findings import Finding, FindingReport, Severity
from repro.viprof.codemap import CodeMapRecord, map_files, parse_map
from repro.viprof.runtime_profiler import VmRegistration

__all__ = [
    "RULE_MALFORMED",
    "EpochMapArtifact",
    "SampleArtifact",
    "SessionArtifacts",
    "load_session",
]

#: Rule id for artifacts that could not be parsed at all.
RULE_MALFORMED = "VP100"

MAP_DIR_NAME = "jit-maps"
SAMPLE_DIR_NAME = "samples"
META_NAME = "meta.json"
SALVAGE_NAME = "salvage.json"
QUARANTINE_DIR_NAME = "quarantine"

_DOMAIN_DIR_RE = re.compile(r"^dom(\d+)$")


@dataclass(frozen=True, slots=True)
class EpochMapArtifact:
    """One epoch's code-map file, loaded without well-formedness checks."""

    epoch: int
    path: Path
    records: tuple[CodeMapRecord, ...]


@dataclass(frozen=True, slots=True)
class SampleArtifact:
    """One packed sample file, fully decoded.

    ``domain_ids`` carries the per-record domain tags of the XenoProf
    (``XPRS``) format, aligned with ``samples``; it is None for the core
    ``VPRS`` format, which has no domain column.
    """

    path: Path
    event_name: str
    period: int
    samples: tuple[RawSample, ...]
    domain_ids: tuple[int, ...] | None = None


@dataclass
class SessionArtifacts:
    """Everything the artifact rules inspect, plus load-time findings."""

    session_dir: Path
    maps: dict[int, EpochMapArtifact] = field(default_factory=dict)
    sample_files: tuple[SampleArtifact, ...] = ()
    meta: dict | None = None
    #: ``meta.json``'s registration, else the embedded summary's.
    registration: VmRegistration | None = None
    boot_map: RvmMap | None = None
    salvage: dict | None = None
    #: A multi-domain (fleet) session root holds one complete sub-session
    #: per guest under ``dom<N>/``; single-stack sessions leave this empty.
    domains: dict[int, "SessionArtifacts"] = field(default_factory=dict)
    load_findings: list[Finding] = field(default_factory=list)

    @property
    def epochs(self) -> tuple[int, ...]:
        return tuple(sorted(self.maps))

    @property
    def quarantined_epochs(self) -> tuple[int, ...]:
        """Epochs the salvage manifest fenced off (empty when the session
        was never salvaged or the manifest is malformed — VP107 reports
        the latter)."""
        if not isinstance(self.salvage, dict):
            return ()
        q = self.salvage.get("quarantined_epochs")
        if not isinstance(q, list):
            return ()
        return tuple(e for e in q if isinstance(e, int))

    def map_label(self, epoch: int) -> str:
        """Artifact label for findings against one epoch's map."""
        art = self.maps.get(epoch)
        return str(art.path) if art is not None else f"epoch-{epoch}"


def load_session(session_dir: Path | str) -> SessionArtifacts:
    """Load every artifact the rules need; never raises on *corrupt* data.

    Raises:
        StatCheckError: if ``session_dir`` is not a session directory at
            all (missing, or contains none of the expected artifacts).
    """
    session_dir = Path(session_dir)
    if not session_dir.is_dir():
        raise StatCheckError(f"{session_dir}: not a directory")
    map_dir = session_dir / MAP_DIR_NAME
    sample_dir = session_dir / SAMPLE_DIR_NAME
    meta_path = session_dir / META_NAME
    if not map_dir.is_dir() and not sample_dir.is_dir() \
            and not meta_path.is_file():
        raise StatCheckError(
            f"{session_dir}: no {MAP_DIR_NAME}/, {SAMPLE_DIR_NAME}/ or "
            f"{META_NAME} — not a VIProf session directory"
        )

    report = FindingReport()
    arts = SessionArtifacts(session_dir=session_dir)

    if map_dir.is_dir():
        for _, path in map_files(map_dir):
            try:
                epoch, records, problems = parse_map(path)
            except OSError as e:
                report.add(
                    Severity.ERROR, RULE_MALFORMED, str(path), "-",
                    f"unreadable map file: {e}",
                )
                continue
            for where, what in problems:
                report.add(
                    Severity.ERROR, RULE_MALFORMED, str(path), where, what
                )
            if epoch is None:
                continue
            if epoch in arts.maps:
                report.add(
                    Severity.ERROR, RULE_MALFORMED, str(path), "line 1",
                    f"duplicate map for epoch {epoch} "
                    f"(first seen in {arts.maps[epoch].path.name})",
                )
                continue
            arts.maps[epoch] = EpochMapArtifact(
                epoch=epoch, path=path, records=tuple(records)
            )

    if sample_dir.is_dir():
        sample_files: list[SampleArtifact] = []
        for path in sorted(sample_dir.glob("*.samples")):
            try:
                # Magic-sniffing reader: live sessions write the core
                # format, Xen archives the domain-tagged one; the rules
                # inspect the core record either way, and the domain
                # column (when present) feeds the fleet-isolation rule.
                with open_sample_record_file(path) as reader:
                    records = tuple(reader)
                    sample_files.append(
                        SampleArtifact(
                            path=path,
                            event_name=reader.event_name,
                            period=reader.period,
                            samples=tuple(r.sample for r in records),
                            domain_ids=(
                                tuple(r.domain_id for r in records)
                                if reader.codec.has_domain
                                else None
                            ),
                        )
                    )
            except SampleFormatError as e:
                report.add(
                    Severity.ERROR, RULE_MALFORMED, str(path), "-", str(e)
                )
        arts.sample_files = tuple(sample_files)

    if meta_path.is_file():
        try:
            arts.meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:  # JSON or UTF-8 decode errors
            report.add(
                Severity.ERROR, RULE_MALFORMED, str(meta_path), "-",
                f"unreadable metadata: {e}",
            )
    if arts.meta is not None:
        block = arts.meta.get("registration")
        if isinstance(block, dict) and VmRegistration.parse(block) is None:
            report.add(
                Severity.ERROR, RULE_MALFORMED, str(meta_path),
                "registration",
                f"bad VM registration record: {block!r}",
            )
    arts.registration = session_registration(session_dir)

    salvage_path = session_dir / SALVAGE_NAME
    if salvage_path.is_file():
        try:
            arts.salvage = json.loads(
                salvage_path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as e:  # JSON or UTF-8 decode errors
            report.add(
                Severity.ERROR, RULE_MALFORMED, str(salvage_path), "-",
                f"unreadable salvage manifest: {e}",
            )

    # A fleet session root carries one complete sub-session per guest
    # domain under dom<N>/; load each recursively so the cross-domain
    # isolation rule (VP112) can compare them against the root stream.
    # Their load-time findings propagate — a rotten artifact in a domain
    # sub-session must not pass silently just because the lint ran at
    # the fleet root.
    for sub_dir in sorted(session_dir.iterdir()):
        m = _DOMAIN_DIR_RE.match(sub_dir.name)
        if m is None or not sub_dir.is_dir():
            continue
        try:
            sub = load_session(sub_dir)
        except StatCheckError as e:
            report.add(
                Severity.ERROR, RULE_MALFORMED, str(sub_dir), "-",
                f"dom directory is not a session: {e}",
            )
            continue
        arts.domains[int(m.group(1))] = sub
        report.extend(sub.load_findings)

    arts.boot_map = build_boot_image().rvm_map
    arts.load_findings = list(report)
    return arts

"""Deterministic lint-fixture sessions (clean + seeded corruptions).

Tests and CI need sessions whose ground truth is known *by construction*:
one clean session the analyzer must pass, and six sessions each seeded
with exactly one corruption the analyzer must catch under the right rule
id.  Building them here — instead of checking in opaque artifacts or
running the whole simulator — keeps the fixtures readable, regenerable,
and independent of engine behaviour.

Usage::

    python -m repro.statcheck.fixtures DEST      # write all six sessions
    python -m repro.statcheck.fixtures --selftest  # generate + verify
    python -m repro.statcheck.fixtures --damaged DEST  # salvaged session
    python -m repro.statcheck.fixtures --fleet-damaged DEST  # 2-domain
                                                 # salvaged fleet session

The session shape mirrors a real (tiny) run: three epochs of partial
code maps with a compile, two GC moves, address reuse, and a sample file
whose heap samples all resolve via the paper's backward walk.

The *damaged* fixture starts from the clean shape, applies two
deterministic injuries (a sample file cut mid-record, one code map torn
inside a hex field) and then runs ``salvage_session`` over the wreck, so
the checked-in copy carries a real ``salvage.json`` and quarantine
directory for the VP107–VP109 rules to validate.  It must lint with no
findings above INFO: the damage is fully accounted for by the manifest.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.errors import CodeMapError, StatCheckError
from repro.profiling.model import RawSample
from repro.profiling.samplefile import SampleFileWriter
from repro.statcheck.findings import Severity
from repro.viprof.arena import build_arena
from repro.viprof.codemap import CodeMapRecord, CodeMapWriter

__all__ = [
    "CORRUPTIONS",
    "EXPECTED_RULE",
    "FLEET_CORRUPTIONS",
    "write_fixture_session",
    "write_all_fixtures",
    "write_damaged_fixture_session",
    "write_fleet_fixture_session",
    "write_fleet_damaged_fixture_session",
    "main",
]

#: Corruption names, each tripping exactly one rule.
CORRUPTIONS = (
    "overlap",
    "epoch-gap",
    "orphan",
    "signature-collision",
    "stale-moved",
    "stale-arena",
)

#: Which rule id each corruption must be reported under.
EXPECTED_RULE = {
    "overlap": "VP101",
    "epoch-gap": "VP102",
    "orphan": "VP103",
    "signature-collision": "VP104",
    "stale-moved": "VP105",
    "stale-arena": "VP111",
}

_TASK_ID = 42
_HEAP_LOW = 0x6080_0000
_HEAP_HIGH = 0x6200_0000
_EVENT = "GLOBAL_POWER_EVENTS"
_PERIOD = 90_000

#: A boot-image symbol (see repro.jvm.bootimage) used to seed the
#: signature-collision corruption.
_BOOT_SYMBOL = "org.mmtk.plan.CopySpace.traceObject"


def _rec(
    addr: int, size: int, name: str, tier: str = "base", moved: bool = False
) -> CodeMapRecord:
    return CodeMapRecord(
        address=addr, size=size, tier=tier, name=name, moved=moved
    )


def write_fixture_session(
    dest: Path | str, corruption: str | None = None, batch: bool = False
) -> Path:
    """Write one fixture session into ``dest`` (created, must not exist).

    ``corruption=None`` writes the clean session; otherwise one of
    :data:`CORRUPTIONS` is seeded on top of the clean shape.
    ``batch=True`` emits the sample file through the batched write path
    (``write_batch``) instead of per-record ``write`` — the sample bytes
    are identical either way (that is the batching contract), and the
    session's ``meta.json`` records which path produced it.
    """
    if corruption is not None and corruption not in CORRUPTIONS:
        raise StatCheckError(
            f"unknown corruption {corruption!r} "
            f"(known: {', '.join(CORRUPTIONS)})"
        )
    dest = Path(dest)
    if dest.exists():
        raise StatCheckError(f"{dest}: already exists")
    dest.mkdir(parents=True)

    # --- epoch code maps ---------------------------------------------
    # Epoch 0: A and B compiled.  The GC closing epoch 0 moves A.
    # Epoch 1: A's post-move home (moved flag) + C compiled.  The GC
    #          closing epoch 1 moves B.
    # Epoch 2: B's post-move home (moved flag) + D compiled.
    epoch0 = [
        _rec(0x6080_1000, 0x200, "fixture.app.Alpha.run"),
        _rec(0x6080_2000, 0x300, "fixture.app.Beta.step"),
    ]
    epoch1 = [
        _rec(0x6081_0000, 0x200, "fixture.app.Alpha.run", moved=True),
        _rec(0x6080_4000, 0x100, "fixture.app.Gamma.scan", tier="O1"),
    ]
    epoch2 = [
        _rec(0x6081_4000, 0x300, "fixture.app.Beta.step", moved=True),
        _rec(0x6080_6000, 0x180, "fixture.app.Delta.emit", tier="O1"),
    ]

    if corruption == "overlap":
        epoch1.append(
            _rec(0x6081_0080, 0x100, "fixture.app.Evil.clobber")
        )
    if corruption == "signature-collision":
        epoch2 = [
            _rec(0x6081_4000, 0x300, "fixture.app.Beta.step", moved=True),
            _rec(0x6080_6000, 0x180, _BOOT_SYMBOL, tier="O1"),
        ]
    if corruption == "stale-moved":
        epoch2.append(
            _rec(0x6081_8000, 0x100, "fixture.app.Ghost.phantom",
                 moved=True)
        )

    last_epoch = 3 if corruption == "epoch-gap" else 2
    writer = CodeMapWriter(dest / "jit-maps")
    writer.write(0, epoch0)
    writer.write(1, epoch1)
    writer.write(last_epoch, epoch2)

    # Compile the zero-copy arena the way a real session teardown would,
    # so the fixtures exercise VP111 and the arena-backed loader.  The
    # overlap corruption cannot compile (the strict loader rejects it —
    # exactly the production behaviour), so that session ships text-only.
    try:
        build_arena(dest / "jit-maps")
    except CodeMapError:
        pass

    if corruption == "stale-arena":
        # Tamper *after* compiling: a harmless extra record (disjoint,
        # unique name, not moved, never sampled) drifts the map file out
        # from under the arena's recorded digests without waking any
        # other rule.  Loaders fall back to text; VP111 flags the drift.
        extra = _rec(0x6081_8000, 0x100, "fixture.app.Extra.late")
        with open(
            writer.path_for(last_epoch), "a", encoding="utf-8"
        ) as fh:
            fh.write(extra.to_line() + "\n")

    # --- samples ------------------------------------------------------
    def s(pc: int, cycle: int, epoch: int, kernel: bool = False) -> RawSample:
        return RawSample(
            pc=pc, event_name=_EVENT, task_id=_TASK_ID,
            kernel_mode=kernel, cycle=cycle, epoch=epoch,
        )

    samples = [
        s(0x6080_1010, 1_000, 0),            # A, own epoch
        s(0x6080_2040, 2_000, 0),            # B, own epoch
        s(0x6081_0010, 3_000, 1),            # A post-move, own epoch
        s(0x6080_2040, 3_500, 1),            # B, one epoch back
        s(0xC000_1000, 4_000, 1, kernel=True),
        s(0x6080_6010, 5_000, last_epoch),   # D, own epoch
        s(0x6081_4020, 5_500, last_epoch),   # B post-move, own epoch
    ]
    if corruption == "orphan":
        samples.append(s(0x61F0_0000, 6_000, 2))  # mapped in no epoch

    sample_dir = dest / "samples"
    sample_dir.mkdir()
    with SampleFileWriter(
        sample_dir / f"{_EVENT}.samples", _EVENT, _PERIOD
    ) as w:
        if batch:
            w.write_batch(samples)
        else:
            for sample in samples:
                w.write(sample)

    # --- metadata -----------------------------------------------------
    meta = {
        "benchmark": "fixture",
        "mode": "viprof",
        "period": _PERIOD,
        "seed": 7,
        "time_scale": 0.1,
        "wall_cycles": 10_000,
        "write_path": "batched" if batch else "per-record",
        "registration": {
            "task_id": _TASK_ID,
            "heap_low": _HEAP_LOW,
            "heap_high": _HEAP_HIGH,
        },
    }
    (dest / "meta.json").write_text(json.dumps(meta, indent=2))
    return dest


#: How many bytes the damaged fixture chops off its sample file.  Must
#: be a strict sub-record amount (the core record is 29 bytes) so the
#: cut lands *inside* the final record and salvage must truncate.
_DAMAGE_CHOP_BYTES = 10


def write_damaged_fixture_session(dest: Path | str) -> Path:
    """Write the clean session, injure it deterministically, salvage it.

    Injuries (mirroring the fault-injection crash shapes):

    * the sample file loses its last :data:`_DAMAGE_CHOP_BYTES` bytes —
      a torn final record, as a crash between watermark spill and flush
      would leave;
    * the epoch-1 code map is cut three characters into its first record
      line (``0x6``…), as a crash mid ``CodeMapWriter.write`` would
      leave.

    ``salvage_session`` then truncates the sample file at the last whole
    record, quarantines the torn map, and writes ``salvage.json`` with
    ``quarantined_epochs == (1,)``.  Last, the session's offline summary
    is saved as ``summary.json`` for VP110 to check.  The result lints
    with nothing above INFO severity; written into a directory named
    ``lint-session-damaged`` (the summary records the name), it is
    byte-identical to the checked-in fixture of that name.
    """
    from repro.metrics.build import derive_summary
    from repro.viprof.salvage import salvage_session

    dest = write_fixture_session(dest)

    sample_path = dest / "samples" / f"{_EVENT}.samples"
    data = sample_path.read_bytes()
    sample_path.write_bytes(data[: -_DAMAGE_CHOP_BYTES])

    map_path = dest / "jit-maps" / "jit-map.00001"
    text = map_path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    map_path.write_text(header + "\n" + body[:3], encoding="utf-8")

    salvage_session(dest)

    # Make the checked-in copy machine-independent: the manifest's
    # free-text reasons embed the absolute session path at salvage time.
    manifest_path = dest / "salvage.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["maps"] + manifest["sample_files"]:
        if isinstance(entry.get("reason"), str):
            entry["reason"] = (
                entry["reason"]
                .replace(str(dest.resolve()), ".")
                .replace(str(dest), ".")
            )
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    derive_summary(dest).save(dest / "summary.json")
    return dest


#: Fleet corruptions, each tripping the cross-domain rule (VP112) at the
#: session root and nothing else there.
FLEET_CORRUPTIONS = ("tag-leak", "quarantine-leak")

#: The guest domains of the fleet fixture (dom0 is the hypervisor's).
_FLEET_DOMAINS = (1, 2)


def _xenoize_domain_session(
    dom_dir: Path, domain_id: int
) -> list[tuple[RawSample, int]]:
    """Rewrite one fixture sub-session's sample file in the domain-tagged
    ``XPRS`` format (what XenoProf's daemon writes) and return the tagged
    records for the root stream."""
    from repro.profiling.record_codec import (
        DOMAIN_CODEC,
        RecordFileWriter,
        open_sample_record_file,
    )

    old = dom_dir / "samples" / f"{_EVENT}.samples"
    with open_sample_record_file(old) as reader:
        samples = [r.sample for r in reader]
    old.unlink()
    path = dom_dir / "samples" / f"xenoprof.{_EVENT}.samples"
    with RecordFileWriter(path, DOMAIN_CODEC, _EVENT, _PERIOD) as w:
        for s in samples:
            w.write(s, domain_id=domain_id)
    return [(s, domain_id) for s in samples]


def _injure_and_salvage_domain(dom_dir: Path) -> None:
    """Tear one domain's newest-but-one code map (the shape a killed
    guest leaves) and salvage its sub-session, manifest made
    machine-independent like the single-stack damaged fixture."""
    from repro.viprof.salvage import salvage_session

    map_path = dom_dir / "jit-maps" / "jit-map.00001"
    text = map_path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    map_path.write_text(header + "\n" + body[:3], encoding="utf-8")
    salvage_session(dom_dir)

    manifest_path = dom_dir / "salvage.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for entry in manifest["maps"] + manifest["sample_files"]:
        if isinstance(entry.get("reason"), str):
            entry["reason"] = (
                entry["reason"]
                .replace(str(dom_dir.resolve()), ".")
                .replace(str(dom_dir), ".")
            )
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def write_fleet_fixture_session(
    dest: Path | str, corruption: str | None = None
) -> Path:
    """Write a two-domain fleet fixture session into ``dest``.

    The layout mirrors ``MultiStackResult.save_fleet_session``: a root
    ``samples/`` stream holding every domain's records (domain-tagged,
    interleaved by cycle) plus one complete sub-session per guest under
    ``dom<N>/`` whose records partition the root exactly.  Each
    sub-session is the clean single-stack fixture shape, so it lints
    clean on its own and the cross-domain rule (VP112) has known ground
    truth at the root.

    Corruptions (:data:`FLEET_CORRUPTIONS`):

    * ``tag-leak`` — one record in dom2's file is retagged dom1: one
      guest's stream bled into another's sub-session;
    * ``quarantine-leak`` — dom1 is legitimately damaged and salvaged,
      then its ``salvage.json`` is copied onto healthy dom2: dom2 now
      quarantines an epoch its own healthy map contradicts.
    """
    from repro.profiling.record_codec import (
        DOMAIN_CODEC,
        RecordFileWriter,
        open_sample_record_file,
    )

    if corruption is not None and corruption not in FLEET_CORRUPTIONS:
        raise StatCheckError(
            f"unknown fleet corruption {corruption!r} "
            f"(known: {', '.join(FLEET_CORRUPTIONS)})"
        )
    dest = Path(dest)
    if dest.exists():
        raise StatCheckError(f"{dest}: already exists")
    dest.mkdir(parents=True)

    tagged: list[tuple[RawSample, int]] = []
    for did in _FLEET_DOMAINS:
        write_fixture_session(dest / f"dom{did}")
        tagged += _xenoize_domain_session(dest / f"dom{did}", did)
    # Buffer order: by cycle, domain id breaking the fixture's exact
    # ties.  Per-domain cycles are increasing, so each domain's
    # subsequence of the root equals its own file — an exact partition.
    tagged.sort(key=lambda pair: (pair[0].cycle, pair[1]))

    root_dir = dest / "samples"
    root_dir.mkdir()
    with RecordFileWriter(
        root_dir / f"xenoprof.{_EVENT}.samples", DOMAIN_CODEC, _EVENT,
        _PERIOD,
    ) as w:
        for s, t in tagged:
            w.write(s, domain_id=t)

    (dest / "meta.json").write_text(
        json.dumps(
            {
                "benchmark": "fleet-fixture",
                "mode": "xenoprof",
                "period": _PERIOD,
                "domains": list(_FLEET_DOMAINS),
            },
            indent=2,
        )
    )

    if corruption == "tag-leak":
        path = dest / "dom2" / "samples" / f"xenoprof.{_EVENT}.samples"
        with open_sample_record_file(path) as reader:
            samples = [r.sample for r in reader]
        path.unlink()
        with RecordFileWriter(path, DOMAIN_CODEC, _EVENT, _PERIOD) as w:
            for i, s in enumerate(samples):
                w.write(s, domain_id=1 if i == len(samples) - 1 else 2)
    elif corruption == "quarantine-leak":
        _injure_and_salvage_domain(dest / "dom1")
        shutil.copyfile(
            dest / "dom1" / "salvage.json", dest / "dom2" / "salvage.json"
        )
    return dest


def write_fleet_damaged_fixture_session(dest: Path | str) -> Path:
    """The checked-in multi-domain damaged shape: dom1 torn and salvaged
    (quarantined epoch, manifest), dom2 healthy, root stream intact.
    Must lint with nothing above INFO at the root *and* in each
    sub-session: one guest's damage is fully accounted for by its own
    manifest and never leaks into the sibling's accounting."""
    dest = write_fleet_fixture_session(dest)
    _injure_and_salvage_domain(dest / "dom1")
    return dest


def write_all_fixtures(dest: Path | str, batch: bool = False) -> dict[str, Path]:
    """Write ``clean/`` plus one directory per corruption under ``dest``."""
    dest = Path(dest)
    out = {"clean": write_fixture_session(dest / "clean", batch=batch)}
    for c in CORRUPTIONS:
        out[c] = write_fixture_session(dest / c, corruption=c, batch=batch)
    return out


def selftest() -> int:
    """Generate every fixture and verify the analyzer's verdicts."""
    from repro.statcheck.analyzer import lint_session

    tmp = Path(tempfile.mkdtemp(prefix="viprof-lint-fixtures-"))
    failures: list[str] = []
    try:
        sessions = write_all_fixtures(tmp)
        clean = lint_session(sessions["clean"])
        if clean.exit_code() != 0 or len(clean) != 0:
            failures.append(
                f"clean session not clean:\n{clean.format_text()}"
            )
        for c in CORRUPTIONS:
            expected = EXPECTED_RULE[c]
            report = lint_session(sessions[c])
            if not report.by_rule(expected):
                failures.append(
                    f"{c}: rule {expected} not triggered:\n"
                    f"{report.format_text()}"
                )
            unexpected = [r for r in report.rule_ids if r != expected]
            if unexpected:
                failures.append(
                    f"{c}: unexpected rules {unexpected}:\n"
                    f"{report.format_text()}"
                )
            if report.exit_code(fail_on=Severity.WARNING) == 0:
                failures.append(f"{c}: analyzer exit code was 0")
        damaged = write_damaged_fixture_session(tmp / "damaged")
        report = lint_session(damaged)
        if report.exit_code(fail_on=Severity.WARNING) != 0:
            failures.append(
                "damaged session has unaccounted damage:\n"
                f"{report.format_text()}"
            )
        if not (damaged / "salvage.json").is_file():
            failures.append("damaged session has no salvage manifest")

        # Fleet fixtures: clean and damaged-but-salvaged lint clean at
        # the root and per sub-session; each corruption trips exactly
        # the cross-domain rule at the root.
        for name, writer in (
            ("fleet-clean", write_fleet_fixture_session),
            ("fleet-damaged", write_fleet_damaged_fixture_session),
        ):
            root = writer(tmp / name)
            for d in (root, *(root / f"dom{n}" for n in _FLEET_DOMAINS)):
                report = lint_session(d)
                if report.exit_code(fail_on=Severity.WARNING) != 0:
                    failures.append(
                        f"{name}: {d.name} not clean:\n"
                        f"{report.format_text()}"
                    )
        for c in FLEET_CORRUPTIONS:
            root = write_fleet_fixture_session(tmp / f"fleet-{c}", c)
            report = lint_session(root)
            if not report.by_rule("VP112"):
                failures.append(
                    f"fleet {c}: VP112 not triggered:\n"
                    f"{report.format_text()}"
                )
            unexpected = [r for r in report.rule_ids if r != "VP112"]
            if unexpected:
                failures.append(
                    f"fleet {c}: unexpected rules {unexpected}:\n"
                    f"{report.format_text()}"
                )
            if report.exit_code(fail_on=Severity.WARNING) == 0:
                failures.append(f"fleet {c}: analyzer exit code was 0")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if failures:
        print("\n\n".join(failures), file=sys.stderr)
        return 1
    print(f"fixture selftest ok: clean + {len(CORRUPTIONS)} corruptions "
          f"+ fleet (clean, damaged, {len(FLEET_CORRUPTIONS)} corruptions) "
          "verified")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.statcheck.fixtures",
        description="generate (or verify) lint fixture sessions",
    )
    parser.add_argument(
        "dest", nargs="?", default=None,
        help="directory to write the fixture sessions into",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="generate into a temp dir, lint, verify verdicts, clean up",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="emit sample files through the batched write path",
    )
    parser.add_argument(
        "--damaged", action="store_true",
        help="write only the damaged-and-salvaged session into dest",
    )
    parser.add_argument(
        "--fleet-damaged", action="store_true",
        help="write only the damaged-and-salvaged two-domain fleet "
        "session into dest",
    )
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.dest is None:
        parser.error("dest is required unless --selftest")
    if args.damaged:
        print(f"{'damaged':<22} {write_damaged_fixture_session(args.dest)}")
        return 0
    if args.fleet_damaged:
        print(
            f"{'fleet-damaged':<22} "
            f"{write_fleet_damaged_fixture_session(args.dest)}"
        )
        return 0
    sessions = write_all_fixtures(args.dest, batch=args.batch)
    for name, path in sessions.items():
        print(f"{name:<22} {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Artifact-rule tests: seeded corruptions, tolerant loading, verdicts."""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from repro import viprof_profile
from repro.errors import StatCheckError
from repro.metrics.build import derive_summary, session_registration
from repro.profiling.model import RawSample
from repro.profiling.record_codec import CORE_CODEC, probe_sample_file
from repro.profiling.samplefile import SampleFileWriter
from repro.statcheck.analyzer import lint_session
from repro.statcheck.artifacts import (
    EpochMapArtifact,
    SessionArtifacts,
    load_session,
)
from repro.statcheck.checks import check_map_overlap
from repro.statcheck.findings import Severity
from repro.statcheck.fixtures import (
    CORRUPTIONS,
    EXPECTED_RULE,
    write_all_fixtures,
    write_damaged_fixture_session,
    write_fixture_session,
)
from repro.viprof.arena import build_arena
from repro.viprof.codemap import CodeMapIndex, CodeMapRecord, CodeMapWriter
from repro.workloads import by_name


class TestSeededCorruptionFixtures:
    """The acceptance criteria: all five corruptions caught, clean passes."""

    def test_clean_session_has_no_findings(self, tmp_path):
        sess = write_fixture_session(tmp_path / "clean")
        report = lint_session(sess)
        assert len(report) == 0
        assert report.exit_code() == 0

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_corruption_detected_under_its_rule(self, tmp_path, corruption):
        sess = write_fixture_session(tmp_path / corruption, corruption)
        report = lint_session(sess)
        expected = EXPECTED_RULE[corruption]
        assert report.by_rule(expected), report.format_text()
        # ... and *only* that rule fires: each corruption is surgical.
        assert report.rule_ids == (expected,), report.format_text()
        assert report.exit_code(fail_on=Severity.WARNING) == 1

    def test_write_all_fixtures(self, tmp_path):
        sessions = write_all_fixtures(tmp_path)
        assert set(sessions) == {"clean", *CORRUPTIONS}
        for p in sessions.values():
            assert (p / "meta.json").is_file()

    def test_unknown_corruption_rejected(self, tmp_path):
        with pytest.raises(StatCheckError, match="unknown corruption"):
            write_fixture_session(tmp_path / "x", "made-up")

    def test_existing_dest_rejected(self, tmp_path):
        with pytest.raises(StatCheckError, match="already exists"):
            write_fixture_session(tmp_path)

    def test_checked_in_fixture_session_is_clean(self):
        # CI lints this session; keep the copy on disk in sync with the
        # generator.
        sess = (
            Path(__file__).resolve().parents[1]
            / "fixtures" / "lint-session"
        )
        report = lint_session(sess)
        assert len(report) == 0, report.format_text()


class TestBatchedFixtures:
    """Sessions emitted through the batched write path behave identically
    under every artifact rule — the write path is not an observable."""

    def test_batched_clean_session_has_no_findings(self, tmp_path):
        sess = write_fixture_session(tmp_path / "clean", batch=True)
        report = lint_session(sess)
        assert len(report) == 0, report.format_text()

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_batched_corruption_detected(self, tmp_path, corruption):
        sess = write_fixture_session(
            tmp_path / corruption, corruption, batch=True
        )
        report = lint_session(sess)
        assert report.rule_ids == (EXPECTED_RULE[corruption],), (
            report.format_text()
        )

    def test_batched_sample_bytes_match_per_record(self, tmp_path):
        a = write_fixture_session(tmp_path / "seq")
        b = write_fixture_session(tmp_path / "bat", batch=True)
        name = "GLOBAL_POWER_EVENTS.samples"
        assert (a / "samples" / name).read_bytes() == (
            b / "samples" / name
        ).read_bytes()
        assert json.loads((b / "meta.json").read_text())[
            "write_path"
        ] == "batched"

    def test_checked_in_batched_fixture_session_is_clean(self):
        # CI lints this session too; regenerate with
        # ``python -m repro.statcheck.fixtures --batch`` semantics
        # (write_fixture_session(..., batch=True)).
        sess = (
            Path(__file__).resolve().parents[1]
            / "fixtures" / "lint-session-batched"
        )
        report = lint_session(sess)
        assert len(report) == 0, report.format_text()
        meta = json.loads((sess / "meta.json").read_text())
        assert meta["write_path"] == "batched"


class TestTolerantLoading:
    def test_not_a_session_dir(self, tmp_path):
        with pytest.raises(StatCheckError, match="not a VIProf session"):
            load_session(tmp_path)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(StatCheckError, match="not a directory"):
            load_session(tmp_path / "nope")

    def test_malformed_map_line_becomes_vp100(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        path = sess / "jit-maps" / "jit-map.00001"
        path.write_text(
            path.read_text() + "garbage line that is not a record\n"
        )
        # Editing the map invalidates the compiled arena; drop it so the
        # only ERROR left is the VP100 this test is about (VP111 owns
        # stale-arena detection and has its own fixture corruption).
        (sess / "jit-maps.arena").unlink()
        report = lint_session(sess)
        vp100 = report.by_rule("VP100")
        assert vp100 and "malformed" in vp100[0].message
        # The rest of the artifact is still analyzed (no other errors).
        assert report.count(Severity.ERROR) == 1

    def test_undecodable_map_becomes_vp100(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        path = sess / "jit-maps" / "jit-map.00001"
        path.write_bytes(path.read_bytes() + b"\xff\n")
        report = lint_session(sess)
        assert any(
            "unreadable map file" in f.message and f.artifact == str(path)
            for f in report.by_rule("VP100")
        )

    def test_corrupt_sample_file_becomes_vp100(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        bad = sess / "samples" / "GLOBAL_POWER_EVENTS.samples"
        bad.write_bytes(b"XXXX not a sample file")
        report = lint_session(sess)
        assert report.by_rule("VP100")

    def test_bad_meta_json_becomes_vp100(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        (sess / "meta.json").write_text("{not json")
        report = lint_session(sess)
        assert any(
            "metadata" in f.message for f in report.by_rule("VP100")
        )

    @pytest.mark.parametrize("name", ["meta.json", "salvage.json"])
    def test_undecodable_json_becomes_vp100(self, tmp_path, name):
        sess = write_fixture_session(tmp_path / "s")
        (sess / name).write_bytes(b'{"x": "\xff"}')
        report = lint_session(sess)
        assert any(
            f.artifact == str(sess / name) for f in report.by_rule("VP100")
        )

    def test_bad_registration_becomes_vp100(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        meta = json.loads((sess / "meta.json").read_text())
        meta["registration"] = {"task_id": "nope"}
        (sess / "meta.json").write_text(json.dumps(meta))
        report = lint_session(sess)
        assert any(
            "registration" in f.message for f in report.by_rule("VP100")
        )

    def test_header_filename_mismatch_becomes_vp100(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        (sess / "jit-maps" / "jit-map.00001").rename(
            sess / "jit-maps" / "jit-map.00009"
        )
        report = lint_session(sess)
        assert any(
            "filename epoch" in f.message for f in report.by_rule("VP100")
        )

    def test_loads_without_metadata(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        (sess / "meta.json").unlink()
        arts = load_session(sess)
        assert arts.registration is None
        assert arts.epochs == (0, 1, 2)


class TestIndividualRules:
    def test_orphan_check_skips_without_registration(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s", corruption="orphan")
        (sess / "meta.json").unlink()
        report = lint_session(sess, rule_ids=["VP103"])
        assert report.count(Severity.ERROR) == 0
        assert any(f.severity is Severity.INFO for f in report)

    def test_orphan_with_negative_epoch_searches_all_maps(self, tmp_path):
        # A sample with epoch -1 inside the heap: resolvable via any map,
        # so it must NOT be an orphan.
        sess = write_fixture_session(tmp_path / "s")
        with SampleFileWriter(
            sess / "samples" / "EXTRA.samples", "EXTRA", 1000
        ) as w:
            w.write(RawSample(
                pc=0x6080_1010, event_name="EXTRA", task_id=42,
                kernel_mode=False, cycle=9_000, epoch=-1,
            ))
        report = lint_session(sess, rule_ids=["VP103"])
        assert len(report) == 0

    def test_epoch_tag_regression_detected(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        with SampleFileWriter(
            sess / "samples" / "EXTRA.samples", "EXTRA", 1000
        ) as w:
            w.write(RawSample(
                pc=0x6080_1010, event_name="EXTRA", task_id=42,
                kernel_mode=False, cycle=1_000, epoch=2,
            ))
            w.write(RawSample(
                pc=0x6080_1010, event_name="EXTRA", task_id=42,
                kernel_mode=False, cycle=2_000, epoch=0,
            ))
        report = lint_session(sess, rule_ids=["VP106"])
        assert any("regresses" in f.message for f in report)

    def test_epoch_tag_beyond_newest_map_warns(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        with SampleFileWriter(
            sess / "samples" / "EXTRA.samples", "EXTRA", 1000
        ) as w:
            w.write(RawSample(
                pc=0xC000_1000, event_name="EXTRA", task_id=42,
                kernel_mode=True, cycle=9_000, epoch=7,
            ))
        report = lint_session(sess, rule_ids=["VP106"])
        assert any(
            f.severity is Severity.WARNING and "beyond" in f.message
            for f in report
        )

    def test_invalid_epoch_tag_detected(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        with SampleFileWriter(
            sess / "samples" / "EXTRA.samples", "EXTRA", 1000
        ) as w:
            w.write(RawSample(
                pc=0xC000_1000, event_name="EXTRA", task_id=42,
                kernel_mode=True, cycle=9_000, epoch=-5,
            ))
        report = lint_session(sess, rule_ids=["VP106"])
        assert any("invalid epoch tag" in f.message for f in report)

    def test_moved_flag_ok_when_signature_seen_earlier(self, tmp_path):
        # The clean fixture has two legitimately moved records; VP105
        # alone must find nothing.
        sess = write_fixture_session(tmp_path / "s")
        report = lint_session(sess, rule_ids=["VP105"])
        assert len(report) == 0

    def test_duplicate_epoch_map_is_vp100(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        # Second file whose header claims epoch 1 again.
        src = (sess / "jit-maps" / "jit-map.00001").read_text()
        (sess / "jit-maps" / "jit-map.00004").write_text(
            src.replace("epoch 1", "epoch 4", 1)
        )
        # epoch-4 file parses fine; now clone a true duplicate.
        dup = src  # header says epoch 1
        (sess / "jit-maps" / "jit-map.00007").write_text(dup)
        report = lint_session(sess)
        assert any(
            "duplicate map" in f.message or "filename epoch" in f.message
            for f in report.by_rule("VP100")
        )

    def test_unknown_rule_id_rejected(self, tmp_path):
        sess = write_fixture_session(tmp_path / "s")
        with pytest.raises(StatCheckError, match="unknown rule id"):
            lint_session(sess, rule_ids=["VP999"])

    def test_finding_cap_summarized(self, tmp_path):
        # 60+ orphan samples: the engine caps per-rule findings and says so.
        sess = write_fixture_session(tmp_path / "s")
        with SampleFileWriter(
            sess / "samples" / "EXTRA.samples", "EXTRA", 1000
        ) as w:
            for i in range(60):
                w.write(RawSample(
                    pc=0x61F0_0000 + i * 8, event_name="EXTRA", task_id=42,
                    kernel_mode=False, cycle=10_000 + i, epoch=2,
                ))
        report = lint_session(sess, rule_ids=["VP103"])
        errors = [f for f in report if f.severity is Severity.ERROR]
        assert len(errors) == 50
        assert any("suppressed" in f.message for f in report)


class TestOverlapViaWriter:
    def test_writer_can_produce_overlap_and_lint_catches_it(self, tmp_path):
        # CodeMapWriter does not validate overlaps (the runtime CodeMap
        # does); the lint must catch what slipped to disk.
        sess = tmp_path / "s"
        w = CodeMapWriter(sess / "jit-maps")
        w.write(0, [
            CodeMapRecord(address=0x1000, size=0x200, tier="b", name="A"),
            CodeMapRecord(address=0x1100, size=0x200, tier="b", name="B"),
        ])
        report = lint_session(sess, rule_ids=["VP101"])
        assert report.by_rule("VP101")


def overlap_pairs(spans):
    """VP101's pairs, as name sets, over one epoch of ``(start, end,
    name)`` spans."""
    records = tuple(
        CodeMapRecord(address=0x1000 + a, size=b - a, tier="b", name=name)
        for a, b, name in spans
    )
    arts = SessionArtifacts(
        session_dir=Path("s"),
        maps={0: EpochMapArtifact(0, Path("s/jit-maps/jit-map.00000"),
                                  records)},
    )
    return [
        frozenset(re.findall(r"'([^']+)' \[", f.message))
        for f in check_map_overlap(arts)
    ]


class TestOverlapDetection:
    """VP101's sweep reports every overlapping pair within an epoch."""

    def test_touching_ranges_do_not_overlap(self):
        assert overlap_pairs([(0, 10, "a"), (9, 20, "b")])
        assert not overlap_pairs([(0, 10, "a"), (10, 20, "b")])
        assert overlap_pairs([(5, 6, "a"), (0, 100, "b")])

    def test_disjoint(self):
        assert overlap_pairs(
            [(0, 10, "a"), (10, 20, "b"), (30, 40, "c")]
        ) == []

    def test_single_overlap(self):
        assert overlap_pairs([(0, 10, "a"), (5, 15, "b")]) == [
            frozenset(("a", "b"))
        ]

    def test_all_pairs_reported(self):
        pairs = overlap_pairs([(0, 100, "a"), (10, 20, "b"), (15, 30, "c")])
        assert sorted(pairs, key=sorted) == [
            frozenset(("a", "b")),
            frozenset(("a", "c")),
            frozenset(("b", "c")),
        ]

    @pytest.mark.parametrize("seed", [3, 11])
    def test_overlap_pairs_match_quadratic_check(self, seed):
        rng = random.Random(seed)
        spans = []
        for i in range(60):
            start = rng.randrange(0, 2000)
            spans.append((start, start + rng.randrange(1, 100), f"m{i}"))
        expect = {
            frozenset((a[2], b[2]))
            for i, a in enumerate(spans)
            for b in spans[i + 1:]
            if a[0] < b[1] and b[0] < a[1]
        }
        pairs = overlap_pairs(spans)
        assert len(pairs) == len(expect)
        assert set(pairs) == expect


def _append_map_lines(path, records):
    with open(path, "a", encoding="utf-8") as fh:
        for r in records:
            fh.write(r.to_line() + "\n")


def _write_heap_samples(sess, pcs, epoch):
    with SampleFileWriter(
        sess / "samples" / "EXTRA.samples", "EXTRA", 1000
    ) as w:
        for i, pc in enumerate(pcs):
            w.write(RawSample(
                pc=pc, event_name="EXTRA", task_id=42, kernel_mode=False,
                cycle=9_000 + i, epoch=epoch,
            ))


def _nested_records():
    return [
        CodeMapRecord(0x6090_0000, 0x1000, "b", "fixture.app.Long.loop"),
        CodeMapRecord(0x6090_0100, 0x10, "b", "fixture.app.Short.x"),
        CodeMapRecord(0x6090_0200, 0x10, "b", "fixture.app.Short.y"),
    ]


def write_nested_session(dest):
    """The clean fixture plus address reuse across epochs: epoch 2 maps a
    long body, epoch 3 maps two short bodies nested inside its range.
    Epoch-3 heap samples hit a short body, walk back to the long one, or
    (past the long body's end) resolve nowhere."""
    sess = write_fixture_session(dest)
    long, x, y = _nested_records()
    _append_map_lines(sess / "jit-maps" / "jit-map.00002", [long])
    CodeMapWriter(sess / "jit-maps").write(3, [x, y])
    build_arena(sess / "jit-maps")
    _write_heap_samples(sess, [0x6090_0104, 0x6090_0800, 0x6090_1800], 3)
    return sess


@pytest.fixture(scope="module")
def live_session(tmp_path_factory):
    """A fresh live session: no meta.json, registration in summary.json."""
    path = tmp_path_factory.mktemp("live") / "fop"
    viprof_profile(
        by_name("fop"), period=20_000, time_scale=0.05, seed=7,
        session_dir=path,
    )
    return path


def _vp103_counts(report):
    """(orphan ERRORs, samples blocked at a quarantine) from VP103."""
    errors = blocked = 0
    for f in report.by_rule("VP103"):
        if f.severity is Severity.ERROR:
            errors += 1
        elif "blocked" in f.message:
            blocked += int(f.message.split()[0])
    return errors, blocked


class TestOrphanWalk:
    """VP103 walks the session through the reports' backward walk."""

    def test_nested_long_interval_found(self, tmp_path):
        # Overlapping records (VP101's finding) cover the union of their
        # ranges: a heap sample inside the long record, past the nearer
        # nested ones, is not an orphan.
        sess = write_fixture_session(tmp_path / "s")
        (sess / "jit-maps.arena").unlink()
        _append_map_lines(
            sess / "jit-maps" / "jit-map.00002", _nested_records()
        )
        _write_heap_samples(sess, [0x6090_0800], 2)
        report = lint_session(sess, rule_ids=["VP101", "VP103"])
        assert not report.by_rule("VP103"), report.format_text()
        assert len(report.by_rule("VP101")) == 2

    def test_live_session_is_checked(self, live_session):
        report = lint_session(live_session)
        assert not report.by_rule("VP103"), report.format_text()
        assert report.exit_code(fail_on=Severity.INFO) == 0

    def test_live_unmapped_heap_sample_is_an_orphan(
        self, live_session, tmp_path
    ):
        sess = Path(shutil.copytree(live_session, tmp_path / "s"))
        reg = session_registration(sess)
        index = CodeMapIndex.load_dir(sess / "jit-maps")
        pc = next(
            pc for pc in range(reg.heap_high - 8, reg.heap_low, -0x1000)
            if index.resolve(-1, pc) is None
        )
        path = sess / "samples" / "GLOBAL_POWER_EVENTS.samples"
        n = probe_sample_file(path).n_records
        with open(path, "ab") as fh:
            fh.write(CORE_CODEC.pack(RawSample(
                pc=pc, event_name="GLOBAL_POWER_EVENTS",
                task_id=reg.task_id, kernel_mode=False, cycle=10**12,
                epoch=index.epochs[-1],
            )))
        report = lint_session(sess)
        errors = [
            f for f in report.by_rule("VP103")
            if f.severity is Severity.ERROR
        ]
        assert [(f.artifact, f.location) for f in errors] == [
            (str(path), f"sample {n}")
        ]

    @pytest.mark.parametrize(
        "name", ["clean", "orphan", "damaged", "epoch-gap", "nested", "live"]
    )
    def test_agrees_with_offline_summary(self, name, tmp_path, live_session):
        if name == "live":
            sess = live_session
        elif name == "damaged":
            sess = write_damaged_fixture_session(tmp_path / name)
        elif name == "nested":
            sess = write_nested_session(tmp_path / name)
        else:
            corruption = None if name == "clean" else name
            sess = write_fixture_session(tmp_path / name, corruption)
        jit = derive_summary(sess).panel("jit")
        assert _vp103_counts(lint_session(sess, rule_ids=["VP103"])) == (
            jit["unresolved"], jit["blocked_at_quarantine"]
        )


class TestSalvageRules:
    """VP107-VP109: the salvage manifest must be honest about its losses."""

    @pytest.fixture
    def salvaged(self, tmp_path):
        from repro.statcheck.fixtures import write_damaged_fixture_session

        return write_damaged_fixture_session(tmp_path / "damaged")

    @staticmethod
    def _edit_manifest(sess, mutate):
        path = sess / "salvage.json"
        manifest = json.loads(path.read_text())
        mutate(manifest)
        path.write_text(json.dumps(manifest))

    def test_honest_salvage_has_no_errors(self, salvaged):
        report = lint_session(salvaged)
        assert report.exit_code(fail_on=Severity.WARNING) == 0, (
            report.format_text()
        )
        # The damage itself is still *visible*, at INFO.
        assert report.by_rule("VP102") and report.by_rule("VP103")
        assert all(f.severity is Severity.INFO for f in report)

    def test_checked_in_damaged_fixture_is_accounted(self):
        sess = (
            Path(__file__).resolve().parents[1]
            / "fixtures" / "lint-session-damaged"
        )
        report = lint_session(sess)
        assert report.exit_code(fail_on=Severity.WARNING) == 0, (
            report.format_text()
        )
        assert (sess / "salvage.json").is_file()
        assert (sess / "jit-maps" / "quarantine").is_dir()

    def test_damaged_writer_regenerates_checked_in_fixture(self, tmp_path):
        def tree(root):
            return {
                p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        checked_in = (
            Path(__file__).resolve().parents[1]
            / "fixtures" / "lint-session-damaged"
        )
        dest = write_damaged_fixture_session(
            tmp_path / "lint-session-damaged"
        )
        regenerated, expected = tree(dest), tree(checked_in)
        assert sorted(regenerated) == sorted(expected)
        for name, data in expected.items():
            assert regenerated[name] == data, name

    def test_quarantine_without_manifest_is_vp107(self, salvaged):
        (salvaged / "salvage.json").unlink()
        report = lint_session(salvaged, rule_ids=["VP107"])
        assert any(
            "without a salvage manifest" in f.message
            for f in report.by_rule("VP107")
        )

    def test_manifest_naming_missing_file_is_vp107(self, salvaged):
        self._edit_manifest(
            salvaged,
            lambda m: m["sample_files"].append(
                {"path": "samples/GHOST.samples", "action": "intact"}
            ),
        )
        report = lint_session(salvaged, rule_ids=["VP107"])
        assert any(
            "no such file" in f.message for f in report.by_rule("VP107")
        )

    def test_unaccounted_artifact_is_vp107(self, salvaged):
        with SampleFileWriter(
            salvaged / "samples" / "EXTRA.samples", "EXTRA", 1000
        ) as w:
            w.write(RawSample(
                pc=0xC000_1000, event_name="EXTRA", task_id=42,
                kernel_mode=True, cycle=1_000, epoch=0,
            ))
        report = lint_session(salvaged, rule_ids=["VP107"])
        assert any(
            "not accounted for" in f.message for f in report.by_rule("VP107")
        )

    def test_survivor_record_count_mismatch_is_vp107(self, salvaged):
        self._edit_manifest(
            salvaged,
            lambda m: m["sample_files"][0].__setitem__("records_kept", 99),
        )
        report = lint_session(salvaged, rule_ids=["VP107"])
        assert any(
            "99 records kept" in f.message for f in report.by_rule("VP107")
        )

    def test_survivor_still_torn_is_vp107(self, salvaged):
        path = salvaged / "samples" / "GLOBAL_POWER_EVENTS.samples"
        path.write_bytes(path.read_bytes() + b"\x01\x02\x03")
        report = lint_session(salvaged, rule_ids=["VP107"])
        assert any(
            "torn record" in f.message for f in report.by_rule("VP107")
        )

    def test_unknown_version_is_vp107(self, salvaged):
        self._edit_manifest(
            salvaged, lambda m: m.__setitem__("version", 99)
        )
        report = lint_session(salvaged, rule_ids=["VP107"])
        assert any(
            "version 99" in f.message for f in report.by_rule("VP107")
        )

    def test_malformed_manifest_structure_is_vp107(self, salvaged):
        self._edit_manifest(
            salvaged, lambda m: m.__setitem__("sample_files", "nope")
        )
        report = lint_session(salvaged, rule_ids=["VP107"])
        assert any(
            "malformed salvage manifest" in f.message
            for f in report.by_rule("VP107")
        )

    def test_quarantined_epochs_mismatch_is_vp108(self, salvaged):
        self._edit_manifest(
            salvaged, lambda m: m.__setitem__("quarantined_epochs", [])
        )
        report = lint_session(salvaged, rule_ids=["VP108"])
        assert any(
            "quarantined_epochs" in f.message
            for f in report.by_rule("VP108")
        )

    def test_healthy_map_shadowing_quarantine_is_vp108(self, salvaged):
        # A healthy epoch-1 map reappears while the manifest still says
        # epoch 1 is quarantined: resolution would trust a suspect epoch.
        CodeMapWriter(salvaged / "jit-maps").write(1, [
            CodeMapRecord(
                address=0x6081_0000, size=0x100, tier="base", name="X.y"
            ),
        ])
        report = lint_session(salvaged, rule_ids=["VP108"])
        assert any(
            "not isolated" in f.message for f in report.by_rule("VP108")
        )

    def test_wrong_torn_at_is_vp109(self, salvaged):
        self._edit_manifest(
            salvaged,
            lambda m: m["sample_files"][0].__setitem__(
                "torn_at", m["sample_files"][0]["torn_at"] + 1
            ),
        )
        report = lint_session(salvaged, rule_ids=["VP109"])
        assert any(
            "torn_at" in f.message for f in report.by_rule("VP109")
        )

    def test_whole_record_drop_claim_is_vp109(self, salvaged):
        # A truncation by construction drops 1..record_size-1 bytes;
        # claiming 0 (or a whole record) means the math does not add up.
        self._edit_manifest(
            salvaged,
            lambda m: m["sample_files"][0].__setitem__("bytes_dropped", 0),
        )
        report = lint_session(salvaged, rule_ids=["VP109"])
        assert any(
            "bytes_dropped" in f.message for f in report.by_rule("VP109")
        )

    def test_intact_with_losses_is_vp109(self, salvaged):
        def mutate(m):
            m["sample_files"][0]["action"] = "intact"
            m["sample_files"][0]["bytes_dropped"] = 7

        self._edit_manifest(salvaged, mutate)
        report = lint_session(salvaged, rule_ids=["VP109"])
        assert any(
            "intact file claims" in f.message
            for f in report.by_rule("VP109")
        )

    def test_top_epoch_underclaim_is_vp109(self, salvaged):
        self._edit_manifest(
            salvaged, lambda m: m.__setitem__("top_epoch", 0)
        )
        report = lint_session(salvaged, rule_ids=["VP109"])
        assert any(
            "top_epoch" in f.location for f in report.by_rule("VP109")
        )

    def test_unsalvaged_session_skips_salvage_rules(self, tmp_path):
        sess = write_fixture_session(tmp_path / "clean")
        report = lint_session(
            sess, rule_ids=["VP107", "VP108", "VP109"]
        )
        assert len(report) == 0

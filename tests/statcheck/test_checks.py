"""Artifact-rule tests: seeded corruptions, tolerant loading, verdicts."""

import json
from pathlib import Path

import pytest

from repro.errors import StatCheckError
from repro.profiling.model import RawSample
from repro.profiling.samplefile import SampleFileWriter
from repro.statcheck.analyzer import lint_session
from repro.statcheck.artifacts import load_session
from repro.statcheck.findings import Severity
from repro.statcheck.fixtures import (
    CORRUPTIONS,
    EXPECTED_RULE,
    write_all_fixtures,
    write_fixture_session,
)
from repro.viprof.codemap import CodeMapRecord, CodeMapWriter


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

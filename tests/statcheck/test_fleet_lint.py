"""Fleet-scale ``viprof lint``: multi-session, parallelism, cache,
baselines, SARIF.

The acceptance bar: a parallel run over many sessions produces findings
identical to the sequential run (order-normalized), the baseline
suppresses exactly what it recorded, ``--fail-on`` gates the exit code,
and the incremental cache changes results never — only work.
"""

import json

import pytest

from repro.cli import main as viprof_main
from repro.errors import StatCheckError
from repro.statcheck import baseline
from repro.statcheck.analyzer import (
    expand_session_args,
    lint_sessions,
)
from repro.statcheck.findings import Finding, FindingReport, Severity
from repro.statcheck.fixtures import write_fixture_session
from repro.statcheck.sarif import report_to_sarif


@pytest.fixture
def fleet(tmp_path):
    """Three sessions: one clean, two with distinct corruption."""
    return [
        write_fixture_session(tmp_path / "s-clean"),
        write_fixture_session(tmp_path / "s-orphan", "orphan"),
        write_fixture_session(tmp_path / "s-stale", "stale-moved"),
    ]


def normalized(report):
    return sorted(f.to_dict().items() for f in report)


class TestParallelParity:
    def test_parallel_matches_sequential(self, fleet):
        seq = lint_sessions(fleet, workers=1)
        par = lint_sessions(fleet, workers=3)
        assert len(seq) > 0
        assert normalized(par) == normalized(seq)

    def test_merge_order_is_input_order(self, fleet):
        # Findings arrive grouped by session, in command-line order.
        par = lint_sessions(fleet, workers=2)
        artifacts = [f.artifact for f in par]
        positions = [
            min(
                i
                for i, a in enumerate(artifacts)
                if str(d) in a
            )
            for d in fleet
            if any(str(d) in a for a in artifacts)
        ]
        assert positions == sorted(positions)

    def test_cli_parallel_sarif(self, fleet, capsys):
        rc = viprof_main(
            ["lint", *map(str, fleet), "--format", "sarif", "--workers", "2"]
        )
        assert rc == 1  # orphan + stale sessions carry errors
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "viprof-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"VP103", "VP105"} <= rule_ids
        assert all(r["ruleId"] in rule_ids for r in run["results"])
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"note", "warning", "error"}
        for r in run["results"]:
            assert "viprofFingerprint/v1" in r["partialFingerprints"]


class TestGlobExpansion:
    def test_glob_expands_sorted(self, fleet, tmp_path):
        dirs = expand_session_args([str(tmp_path / "s-*")])
        assert [d.name for d in dirs] == ["s-clean", "s-orphan", "s-stale"]

    def test_glob_matching_nothing_is_error(self, tmp_path):
        with pytest.raises(StatCheckError, match="no session directories"):
            expand_session_args([str(tmp_path / "nope-*")])

    def test_cli_glob(self, fleet, tmp_path, capsys):
        rc = viprof_main(["lint", str(tmp_path / "s-*")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "VP103" in out and "VP105" in out

    def test_duplicate_sessions_deduped(self, fleet):
        once = lint_sessions([fleet[1]])
        twice = lint_sessions(
            expand_session_args([str(fleet[1]), str(fleet[1])])
        )
        assert normalized(once) == normalized(twice)


class TestBaseline:
    def test_roundtrip_suppresses_exactly(self, fleet, tmp_path, capsys):
        base = tmp_path / "base.json"
        rc = viprof_main(
            ["lint", *map(str, fleet), "--write-baseline", str(base)]
        )
        assert rc == 0
        assert "recorded" in capsys.readouterr().out
        rc = viprof_main(
            ["lint", *map(str, fleet), "--baseline", str(base)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean: no findings" in out and "suppressed" in out

    def test_new_findings_still_fail(self, fleet, tmp_path, capsys):
        base = tmp_path / "base.json"
        # Baseline only the orphan session's findings...
        assert viprof_main(
            ["lint", str(fleet[1]), "--write-baseline", str(base)]
        ) == 0
        capsys.readouterr()
        # ...then lint the full fleet: the stale-moved finding is new.
        rc = viprof_main(
            ["lint", *map(str, fleet), "--baseline", str(base)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "VP105" in out and "VP103" not in out

    def test_fingerprint_normalizes_session_prefix(self, tmp_path):
        a = tmp_path / "mount-a" / "sess"
        b = tmp_path / "mount-b" / "sess"
        fa = Finding(
            severity=Severity.ERROR, rule_id="VP103",
            artifact=str(a / "samples" / "x.samples"),
            location="sample 7", message="m",
        )
        fb = Finding(
            severity=Severity.ERROR, rule_id="VP103",
            artifact=str(b / "samples" / "x.samples"),
            location="sample 7", message="m",
        )
        assert baseline.finding_fingerprint(
            fa, [a]
        ) == baseline.finding_fingerprint(fb, [b])

    def test_malformed_baseline_is_typed_error(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{\"version\": 99}")
        with pytest.raises(StatCheckError, match="baseline"):
            baseline.load_baseline(p)
        p.write_text("not json")
        with pytest.raises(StatCheckError, match="not JSON"):
            baseline.load_baseline(p)


class TestFailOn:
    def test_fail_on_gates_exit_code(self, tmp_path, capsys):
        sess = write_fixture_session(tmp_path / "gap", "epoch-gap")
        fleet = [str(sess)]
        assert viprof_main(["lint", *fleet]) == 0  # warnings only
        assert viprof_main(["lint", "--fail-on", "warning", *fleet]) == 1
        assert viprof_main(["lint", "--fail-on", "info", *fleet]) == 1

    def test_workers_must_be_positive(self, fleet, capsys):
        rc = viprof_main(["lint", str(fleet[0]), "--workers", "0"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err


class TestIncrementalCache:
    def test_cache_preserves_findings(self, fleet, tmp_path):
        cache = tmp_path / "cache.json"
        cold = lint_sessions(fleet, cache_path=cache)
        assert cache.is_file()
        warm = lint_sessions(fleet, cache_path=cache)
        assert normalized(warm) == normalized(cold)

    def test_cache_hits_skip_relinting(self, fleet, tmp_path, monkeypatch):
        cache = tmp_path / "cache.json"
        lint_sessions(fleet, cache_path=cache)
        import repro.statcheck.analyzer as analyzer_mod

        def boom(payload):
            raise AssertionError(f"cache miss for {payload[0]}")

        monkeypatch.setattr(analyzer_mod, "_lint_session_worker", boom)
        warm = lint_sessions(fleet, cache_path=cache)
        assert len(warm) > 0

    def test_content_change_invalidates(self, fleet, tmp_path):
        cache = tmp_path / "cache.json"
        before = lint_sessions([fleet[0]], cache_path=cache)
        assert len(before) == 0
        # Corrupt the clean session in place: next run must re-lint.
        sample = next((fleet[0] / "samples").iterdir())
        sample.write_bytes(b"XX" + sample.read_bytes()[2:])
        after = lint_sessions([fleet[0]], cache_path=cache)
        assert len(after) > 0

    def test_rule_selection_keys_cache(self, fleet, tmp_path):
        cache = tmp_path / "cache.json"
        narrow = lint_sessions(
            [fleet[1]], rule_ids=["VP101"], cache_path=cache
        )
        assert len(narrow) == 0
        full = lint_sessions([fleet[1]], cache_path=cache)
        assert any(f.rule_id == "VP103" for f in full)

    def test_older_schema_cache_is_not_served(self, fleet, tmp_path):
        # Same session bytes, same rules: an entry written under an older
        # lint schema holds verdicts this version may no longer give.
        from repro.statcheck.analyzer import (
            _rules_cache_key,
            _session_content_hash,
        )

        session = fleet[0]
        planted = Finding(
            severity=Severity.ERROR, rule_id="VP103", artifact=str(session),
            location="-", message="planted by a schema-1 cache",
        )
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({
            "version": 1,
            "sessions": {
                session.resolve().as_posix(): {
                    "hash": _session_content_hash(session),
                    "rules": "s1:" + _rules_cache_key(None).split(":", 1)[1],
                    "findings": [planted.to_dict()],
                },
            },
        }))
        report = lint_sessions([session], cache_path=cache)
        assert planted not in list(report)
        assert len(report) == 0

    def test_corrupt_cache_file_is_cold_start(self, fleet, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("garbage{{{")
        report = lint_sessions(fleet, cache_path=cache)
        assert normalized(report) == normalized(lint_sessions(fleet))


class TestSarifRendering:
    def test_location_line_becomes_region(self):
        r = FindingReport()
        r.add(Severity.ERROR, "SL205", "repro/x.py", "line 12", "leak")
        doc = report_to_sarif(
            r,
            "t",
            [
                {
                    "id": "SL205",
                    "name": "resource-leak",
                    "description": "d",
                    "severity": Severity.ERROR,
                }
            ],
        )
        res = doc["runs"][0]["results"][0]
        loc = res["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] == 12
        assert res["ruleIndex"] == 0

    def test_freeform_location_folded_into_message(self):
        r = FindingReport()
        r.add(Severity.WARNING, "VP102", "sess", "epochs 1..3", "gap")
        doc = report_to_sarif(r, "t", [])
        res = doc["runs"][0]["results"][0]
        assert res["message"]["text"].startswith("epochs 1..3: ")
        assert res["level"] == "warning"

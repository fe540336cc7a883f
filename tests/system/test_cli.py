"""Tests for the viprof CLI."""

import tempfile

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pseudojbb" in out and "antlr" in out

    def test_report(self, capsys):
        assert main(["report", "fop", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "JIT.App" in out
        assert "% resolved" in out

    def test_case_study(self, capsys):
        assert main(["case-study", "--scale", "0.08", "--rows", "6"]) == 0
        out = capsys.readouterr().out
        assert "=== VIProf ===" in out and "=== Oprofile ===" in out

    def test_overhead_subset(self, capsys):
        assert main(
            ["overhead", "--benchmarks", "fop", "--scale", "0.08"]
        ) == 0
        out = capsys.readouterr().out
        assert "VIProf 45K" in out and "Base time" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "fop", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "oprofile" in out and "viprof" in out and "agent" in out

    @pytest.mark.parametrize("bad", ["four", "0"])
    @pytest.mark.parametrize(
        "command",
        [["report", "fop"], ["xen", "--fleet", "2"]],
        ids=lambda command: command[0],
    )
    def test_bad_worker_count_is_a_usage_error(self, command, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--scale", "0.02", "--workers", bad])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_unknown_benchmark_errors(self):
        with pytest.raises(Exception):
            main(["report", "doom", "--scale", "0.1"])

    def test_annotate(self, capsys):
        assert main(["annotate", "fop", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "~bc" in out and "hottest bucket" in out

    def test_diff(self, capsys):
        assert main(
            ["diff", "fop", "--scale", "0.1", "--period", "20000", "45000"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "analyze: period 20000 -> period 45000 [profile]\n"
        )
        assert "delta" in out

    def test_pgo(self, capsys):
        assert main(["pgo", "fop", "--scale", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "hot methods" in out

    def test_xen(self, capsys):
        assert main(["xen", "fop", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "world switches" in out and "dom0:" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["xen", "fop", "--scale", "0.05"],
            ["xen", "--fleet", "2", "--scale", "0.1", "--period", "20000"],
        ],
        ids=["stacks", "fleet"],
    )
    def test_xen_leaves_no_session_dir(self, argv, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(argv) == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "fop"],
            ["case-study", "--benchmark", "fop"],
            ["breakdown", "fop"],
            ["annotate", "fop"],
            ["diff", "fop", "--period", "20000", "45000"],
            ["timeline", "fop", "--period", "20000"],
            ["pgo", "fop"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_single_stack_leaves_no_session_dir(
        self, argv, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(argv + ["--scale", "0.05"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_xen_fleet_without_samples(self, capsys):
        # One guest at the default period records nothing; the session
        # still holds a header-only file per programmed event.
        assert main(["xen", "--fleet", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet: 1 domains, 0 samples")
        rollup = out.split("== fleet rollup ==\n")[1]
        table = rollup.split("\n\nresolution stages:")[0].splitlines()
        assert len(table) == 1 and "Symbol name" in table[0]  # header only

    def test_timeline(self, capsys):
        assert main(
            ["timeline", "fop", "--scale", "0.2", "--period", "20000",
             "--window", "500000"]
        ) == 0
        out = capsys.readouterr().out
        assert "phase transitions" in out and "window" in out


class TestRecoverCli:
    @pytest.fixture
    def damaged_session(self, tmp_path):
        """A fixture session with a mid-record tear in its sample file."""
        from repro.statcheck.fixtures import write_fixture_session

        sess = write_fixture_session(tmp_path / "sess")
        victim = sess / "samples" / "GLOBAL_POWER_EVENTS.samples"
        victim.write_bytes(victim.read_bytes()[:-10])
        return sess

    def test_recover_salvages(self, damaged_session, capsys):
        assert main(["recover", str(damaged_session)]) == 0
        out = capsys.readouterr().out
        assert "salvaged" in out and "truncated" in out
        assert (damaged_session / "salvage.json").is_file()

    def test_recover_dry_run_is_read_only(self, damaged_session, capsys):
        before = {
            p: p.read_bytes()
            for p in damaged_session.rglob("*") if p.is_file()
        }
        assert main(["recover", "--dry-run", str(damaged_session)]) == 0
        out = capsys.readouterr().out
        assert "would salvage" in out
        assert not (damaged_session / "salvage.json").exists()
        after = {
            p: p.read_bytes()
            for p in damaged_session.rglob("*") if p.is_file()
        }
        assert before == after

    def test_recover_json_output(self, damaged_session, capsys):
        import json as json_mod

        assert main(["recover", "--json", str(damaged_session)]) == 0
        manifest = json_mod.loads(capsys.readouterr().out)
        assert manifest["version"] == 1
        assert manifest["sample_files"][0]["action"] == "truncated"

    def test_recover_refuses_second_run(self, damaged_session, capsys):
        assert main(["recover", str(damaged_session)]) == 0
        capsys.readouterr()
        assert main(["recover", str(damaged_session)]) == 2
        assert "viprof recover:" in capsys.readouterr().err

    def test_recover_intact_session(self, tmp_path, capsys):
        from repro.statcheck.fixtures import write_fixture_session

        sess = write_fixture_session(tmp_path / "sess")
        assert main(["recover", str(sess)]) == 0
        assert "session was intact" in capsys.readouterr().out

    def test_recover_not_a_session(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nothing")]) == 2
        assert "viprof recover:" in capsys.readouterr().err

"""Integration tests for the multi-stack XenoProf engine."""

import pytest

from repro.errors import ConfigError
from repro.faults import GUEST_MAP_TEAR, FaultPlan, arm
from repro.pipeline.stages import UNRESOLVED_JIT
from repro.viprof.codemap import CodeMapError, CodeMapIndex
from repro.workloads.fleet import fleet_workloads
from repro.xen import GuestSpec, MultiStackEngine
from repro.xen.fleet import run_fleet
from tests.conftest import make_tiny_workload


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    engine = MultiStackEngine(
        [
            GuestSpec(make_tiny_workload("guest-a", base_time_s=0.2)),
            GuestSpec(
                make_tiny_workload("guest-b", base_time_s=0.3), weight=512
            ),
        ],
        period=30_000,
        session_dir=tmp_path_factory.mktemp("xeno"),
    )
    return engine.run()


class TestMultiStackRun:
    def test_requires_guests(self, tmp_path):
        with pytest.raises(ConfigError):
            MultiStackEngine([], session_dir=tmp_path)

    def test_both_guests_complete(self, result):
        for g in result.guests.values():
            assert g.vm.workload_cycles >= g.vm.budget
            assert g.domain.finished

    def test_samples_tagged_per_domain(self, result):
        assert set(result.buffer.per_domain) == {0, 1}
        assert all(n > 0 for n in result.buffer.per_domain.values())

    def test_world_switches_happened(self, result):
        assert result.hypervisor.world_switches > 2

    def test_weighted_domain_gets_more_cpu(self, result):
        d0 = result.guests[0].domain
        d1 = result.guests[1].domain
        # guest-b has double weight AND a larger budget.
        assert d1.cpu_cycles > d0.cpu_cycles


class TestEngineSeed:
    """A guest whose spec sets no seed takes the engine's, so the engine
    seed changes the run; an explicit ``GuestSpec(seed=...)`` wins."""

    @staticmethod
    def stream(result):
        return [(s.domain_id, s.raw) for s in result.buffer.samples]

    def fleet(self, tmp_path, seed):
        workloads = fleet_workloads(3, base_time_s=0.05, seed=7)
        return run_fleet(
            workloads, period=9000, session_dir=tmp_path / f"s{seed}",
            seed=seed,
        ).result

    def test_engine_seed_reaches_guests(self, tmp_path):
        at_7 = self.fleet(tmp_path, 7)
        assert self.stream(self.fleet(tmp_path, 11)) != self.stream(at_7)
        explicit = MultiStackEngine(
            [
                GuestSpec(w, seed=7)
                for w in fleet_workloads(3, base_time_s=0.05, seed=7)
            ],
            period=9000, session_dir=tmp_path / "explicit", seed=11,
        ).run()
        assert self.stream(explicit) == self.stream(at_7)
        assert explicit.wall_cycles == at_7.wall_cycles


class TestCrossStackReports:
    def test_domain_reports_isolated(self, result):
        r0 = result.domain_report(0)
        r1 = result.domain_report(1)
        # Both guests run the same tiny workload population; isolation shows
        # in the totals matching the per-domain sample counts.
        assert r0.totals["GLOBAL_POWER_EVENTS"] + r0.totals.get(
            "BSQ_CACHE_REFERENCE", 0
        ) == result.buffer.per_domain[0]
        assert sum(r1.totals.values()) == result.buffer.per_domain[1]

    def test_domain_jit_samples_resolve(self, result):
        for did in (0, 1):
            rep = result.domain_report(did)
            jit_rows = [r for r in rep.rows if r.image == "JIT.App"]
            assert jit_rows, f"domain {did} resolved no JIT methods"
            assert not any(
                r.symbol == "(unresolved jit)" and r.count("GLOBAL_POWER_EVENTS") > 2
                for r in jit_rows
            )

    def test_unified_report_prefixes_domains(self, result):
        rep = result.unified_report()
        images = {r.image for r in rep.rows}
        assert any(i.startswith("dom0:") for i in images)
        assert any(i.startswith("dom1:") for i in images)

    def test_epochs_flow_from_each_guest(self, result):
        for s in result.buffer.samples:
            assert s.raw.epoch >= 0

    def test_xen_share_bounded(self, result):
        assert 0.0 <= result.xen_share() < 0.2


def _row_set(report) -> set:
    return {
        (r.image, r.symbol, tuple(sorted(r.counts.items())))
        for r in report.rows
    }


def _nonzero(totals) -> dict:
    return {e: n for e, n in totals.items() if n}


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    return run_fleet(
        fleet_workloads(3, base_time_s=0.05),
        period=20_000,
        session_dir=tmp_path_factory.mktemp("fleet"),
    )


class TestOneChainPath:
    """In-memory reports and file-backed fleet resolution build their
    guest chains in one place, ``MultiStackResult.domain_chain``."""

    def test_maps_load_on_demand(self, tmp_path, monkeypatch):
        loaded = []
        load_dir = CodeMapIndex.load_dir.__func__

        def counted(cls, map_dir, *args, **kwargs):
            loaded.append(map_dir)
            return load_dir(cls, map_dir, *args, **kwargs)

        monkeypatch.setattr(CodeMapIndex, "load_dir", classmethod(counted))
        result = MultiStackEngine(
            [
                GuestSpec(make_tiny_workload("guest-a", base_time_s=0.1)),
                GuestSpec(make_tiny_workload("guest-b", base_time_s=0.1)),
            ],
            period=30_000,
            session_dir=tmp_path,
        ).run()
        assert loaded == []
        result.unified_report()
        assert sorted(loaded) == sorted(
            g.map_dir for g in result.guests.values()
        )

    def test_domain_report_matches_domain_resolve(self, fleet):
        for did in fleet.domain_ids:
            report, _ = fleet.domain_resolve(did)
            assert _row_set(fleet.result.domain_report(did)) == _row_set(
                report
            ), f"dom{did}"

    def test_unified_totals_match_fleet_resolve(self, fleet):
        report, _ = fleet.resolve()
        assert sum(report.totals.values()) == len(fleet.result.buffer)
        assert _nonzero(fleet.result.unified_report().totals) == _nonzero(
            report.totals
        )

    def test_torn_guest_map_raises_until_salvaged(self, tmp_path):
        def run(session_dir):
            return run_fleet(
                fleet_workloads(5, base_time_s=0.12),
                period=20_000,
                session_dir=session_dir,
            )

        with arm() as observer:
            run(tmp_path / "observe")
        last = observer.hits[GUEST_MAP_TEAR]
        with arm(FaultPlan(GUEST_MAP_TEAR, hit=last, seed=5)):
            fs = run(tmp_path / "fleet")
        (killed,) = fs.killed_domains
        with pytest.raises(CodeMapError, match=r"jit-map\.\d{5}"):
            fs.result.domain_report(killed)

        manifest = fs.salvage_domain(killed)
        report, _ = fs.domain_resolve(
            killed, quarantined=manifest.quarantined_epochs, strict=False
        )
        assert any(
            r.image == "JIT.App" and r.symbol != UNRESOLVED_JIT
            for r in report.rows
        )

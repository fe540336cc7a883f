"""The crash matrix: every registered fault point, killed early / mid /
late, must salvage back to a report whose resolved samples are a subset
of the fault-free twin's — with the losses accounted, never misattributed.

The simulated system is deterministic under a fixed workload + seed, so a
crashed run is byte-identical to its fault-free twin right up to the
injected death.  That turns the headline guarantee into three mechanical
checks per matrix cell:

* every salvaged sample file is a byte *prefix* of the twin's file;
* every surviving (non-quarantined) code map is byte-identical to the
  twin's map for that epoch;
* the degraded report's really-resolved sample multiset is contained in
  the twin's, and the JIT stage's counters exactly partition its samples
  into resolved / unresolved / blocked-at-quarantine.
"""

from collections import Counter
from pathlib import Path

import pytest

from repro.errors import InjectedFault
from repro.faults import ALL_FAULT_POINT_NAMES, FaultPlan, arm
from repro.oprofile.opcontrol import OprofileConfig
from repro.pipeline.stages import UNRESOLVED_JIT
from repro.profiling.record_codec import probe_sample_file
from repro.statcheck.analyzer import lint_session
from repro.statcheck.findings import Severity
from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine
from repro.viprof.salvage import (
    ACTION_QUARANTINED,
    ACTION_TRUNCATED,
    salvage_session,
)
from tests.conftest import make_tiny_workload

#: Small write buffer: frequent mid-run spills, so sample bytes are on
#: disk (and torn by the writer.spill effect) when the crash lands.
_BUFFER = 256
_PERIOD = 20_000
_SELECTORS = ("first", "mid", "last")


def _config(session_dir: Path) -> EngineConfig:
    return EngineConfig(
        mode=ProfilerMode.VIPROF,
        profile_config=OprofileConfig.paper_config(_PERIOD),
        session_dir=session_dir,
        seed=7,
        noise=False,
        viprof_write_buffer_bytes=_BUFFER,
    )


def _run_engine(session_dir: Path) -> SystemEngine:
    engine = SystemEngine(
        make_tiny_workload(base_time_s=0.25), _config(session_dir)
    )
    engine.run()
    return engine


def _resolution_multiset(post, real_only: bool) -> Counter:
    """Multiset of fully-identified resolutions.  ``real_only`` drops the
    ``(unresolved jit)`` rows — those are the *accounted* losses, not
    attributions."""
    out: Counter = Counter()
    for rs in post.resolved_samples():
        if real_only and rs.symbol == UNRESOLVED_JIT:
            continue
        raw = rs.raw
        out[(
            raw.pc, raw.cycle, raw.task_id, raw.kernel_mode, raw.epoch,
            rs.image, rs.symbol, rs.offset,
        )] += 1
    return out


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The fault-free twin: engine + its strict report's multiset."""
    session_dir = tmp_path_factory.mktemp("crash-baseline")
    engine = _run_engine(session_dir)
    post = engine.viprof.report(engine.machine.boot.rvm_map)
    post.generate()
    return {
        "dir": session_dir,
        "multiset": _resolution_multiset(post, real_only=False),
    }


@pytest.fixture(scope="module")
def hit_counts(tmp_path_factory):
    """Observe-mode twin: how often each fault point fires in one run."""
    with arm() as injector:
        _run_engine(tmp_path_factory.mktemp("crash-observe"))
    return dict(injector.hits)


def test_every_fault_point_is_reached(hit_counts):
    # A fault point nobody fires is dead coverage: the matrix below
    # would silently shrink.
    assert set(hit_counts) == set(ALL_FAULT_POINT_NAMES)
    assert all(n >= 1 for n in hit_counts.values())


@pytest.mark.parametrize("selector", _SELECTORS)
@pytest.mark.parametrize("point", ALL_FAULT_POINT_NAMES)
def test_kill_and_recover(point, selector, baseline, hit_counts, tmp_path):
    total = hit_counts[point]
    hit = {"first": 1, "mid": (total + 1) // 2, "last": total}[selector]
    session_dir = tmp_path / "crashed"

    engine = SystemEngine(
        make_tiny_workload(base_time_s=0.25), _config(session_dir)
    )
    with arm(FaultPlan(point, hit=hit, seed=5)):
        with pytest.raises(InjectedFault) as exc:
            engine.run()
    assert exc.value.point == point and exc.value.hit == hit

    pre_sizes = {
        p.name: p.stat().st_size
        for p in (session_dir / "samples").glob("*.samples")
    }
    manifest = engine.viprof.salvage()

    # --- salvage accounting is exact ---------------------------------
    for entry in manifest.sample_files:
        path = session_dir / entry.path
        if entry.action == ACTION_QUARANTINED:
            assert entry.records_kept == 0
            continue
        probe = probe_sample_file(path)
        assert probe.n_records == entry.records_kept
        assert probe.trailing_bytes == 0
        if entry.action == ACTION_TRUNCATED:
            assert (
                pre_sizes[path.name] - path.stat().st_size
                == entry.bytes_dropped > 0
            )

    # --- survivors are byte-prefixes of the fault-free twin ----------
    for sample_file in sorted((session_dir / "samples").glob("*.samples")):
        salvaged = sample_file.read_bytes()
        twin = (baseline["dir"] / "samples" / sample_file.name).read_bytes()
        assert twin[: len(salvaged)] == salvaged
    for map_file in sorted((session_dir / "jit-maps").glob("jit-map.*")):
        twin = baseline["dir"] / "jit-maps" / map_file.name
        assert map_file.read_bytes() == twin.read_bytes()

    # --- the degraded report never invents an attribution ------------
    post = engine.viprof.recovered_report(engine.machine.boot.rvm_map)
    post.generate()
    recovered = _resolution_multiset(post, real_only=True)
    assert not recovered - baseline["multiset"], (
        f"{point}@{hit}: recovered report resolved samples the "
        "fault-free twin never produced"
    )

    stats = post.jit_stats
    assert stats.jit_samples == (
        stats.resolved + stats.unresolved + stats.blocked_at_quarantine
    )
    chain_stats = post.chain.stats_dict()
    assert chain_stats["degraded"] is True
    jit_entry = next(
        e for e in chain_stats["stages"] if e["stage"] == "jit-epoch"
    )
    assert jit_entry["degraded"] == {
        "blocked_at_quarantine": stats.blocked_at_quarantine
    }

    # --- and the static analyzer agrees the losses are accounted -----
    report = lint_session(session_dir)
    assert report.exit_code(fail_on=Severity.WARNING) == 0, (
        report.format_text()
    )


def test_salvage_refuses_to_run_twice(tmp_path):
    engine = SystemEngine(
        make_tiny_workload(base_time_s=0.25), _config(tmp_path / "s")
    )
    with arm(FaultPlan("daemon.drain-chunk", hit=1)):
        with pytest.raises(InjectedFault):
            engine.run()
    engine.viprof.salvage()
    from repro.errors import ProfilerError

    with pytest.raises(ProfilerError, match="salvage"):
        salvage_session(tmp_path / "s")


def test_dry_run_leaves_the_wreck_untouched(tmp_path):
    session_dir = tmp_path / "s"
    engine = SystemEngine(
        make_tiny_workload(base_time_s=0.25), _config(session_dir)
    )
    with arm(FaultPlan("writer.spill", hit=2, seed=5)):
        with pytest.raises(InjectedFault):
            engine.run()
    before = {
        p: p.read_bytes()
        for p in session_dir.rglob("*") if p.is_file()
    }
    manifest = engine.viprof.salvage(dry_run=True)
    after = {
        p: p.read_bytes()
        for p in session_dir.rglob("*") if p.is_file()
    }
    assert before == after
    assert manifest.damaged
    assert not (session_dir / "salvage.json").exists()


def test_salvage_quarantines_an_undecodable_map(tmp_path):
    from repro.statcheck.fixtures import write_fixture_session

    session_dir = write_fixture_session(tmp_path / "s")
    victim = session_dir / "jit-maps" / "jit-map.00001"
    victim.write_bytes(victim.read_bytes() + b"\xff\n")
    manifest = salvage_session(session_dir)
    (entry,) = [m for m in manifest.maps if m.epoch == 1]
    assert entry.action == ACTION_QUARANTINED
    assert "UTF-8" in entry.reason
    assert manifest.quarantined_epochs == (1,)

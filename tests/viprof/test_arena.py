"""The compiled code-map arena: format, parity, and failure modes.

The contract under test (see :mod:`repro.viprof.arena`): the arena is a
pure derived cache.  Arena-backed resolution must be byte- and
stats-identical to text-map resolution at any worker count, and any
damaged or stale arena must be rejected on open so ``load_dir`` degrades
to the text path — a wrong report is never a possible outcome.
"""

import pickle

import pytest

from repro.errors import ArenaError, CodeMapError, InjectedFault
from repro.faults import ARENA_WRITE, FaultPlan, arm
from repro.viprof.arena import (
    ArenaCodeMap,
    CodeMapArena,
    arena_path_for,
    build_arena,
    source_digests,
)
from repro.viprof.codemap import (
    CodeMapIndex,
    CodeMapRecord,
    CodeMapWriter,
    read_map_files,
)
from tests.conftest import make_tiny_workload


def text_index(map_dir):
    """The text-map index ``load_dir`` falls back to."""
    return CodeMapIndex({cm.epoch: cm for cm, _ in read_map_files(map_dir)})


def rec(addr, size=0x100, name="a.B.m", tier="baseline", moved=False):
    return CodeMapRecord(
        address=addr, size=size, tier=tier, name=name, moved=moved
    )


@pytest.fixture()
def map_dir(tmp_path):
    """Three epochs with shared names/tiers (exercises deduplication)
    and one moved record."""
    w = CodeMapWriter(tmp_path / "jit-maps")
    w.write(0, [rec(0x6080_0000), rec(0x6080_1000, name="c.D.n", tier="O1")])
    w.write(1, [rec(0x6080_0000, name="c.D.n", tier="O1", moved=True)])
    w.write(2, [rec(0x6080_2000, size=0x420, name="e.F.p", tier="O2")])
    return tmp_path / "jit-maps"


class TestBuildAndOpen:
    def test_roundtrip_matches_text_load(self, map_dir):
        path = build_arena(map_dir)
        assert path == arena_path_for(map_dir)
        arena = CodeMapArena.open(path)
        text = text_index(map_dir)
        assert arena.epochs == text.epochs
        assert arena.records == sum(
            len(text.map_for(e)) for e in text.epochs
        )
        for epoch in arena.epochs:
            assert (
                arena.epoch_map(epoch).records
                == text.map_for(epoch).records
            )
        arena.close()

    def test_build_is_byte_deterministic(self, map_dir):
        first = build_arena(map_dir).read_bytes()
        assert build_arena(map_dir).read_bytes() == first

    def test_empty_map_dir_builds_nothing_and_clears(self, tmp_path):
        map_dir = tmp_path / "jit-maps"
        map_dir.mkdir()
        arena_path_for(map_dir).write_bytes(b"old arena")
        assert build_arena(map_dir) is None
        assert not arena_path_for(map_dir).exists()

    def test_malformed_source_map_rejected(self, map_dir):
        (map_dir / "jit-map.00001").write_text("bogus\n")
        with pytest.raises(CodeMapError):
            build_arena(map_dir)

    def test_lookup_parity_with_text_map(self, map_dir):
        text = text_index(map_dir)
        probes = [
            0x6080_0000, 0x6080_00FF, 0x6080_0100, 0x6080_1000,
            0x6080_2000, 0x6080_241F, 0x6080_2420, 0x7000_0000,
        ]
        with CodeMapArena.open(build_arena(map_dir)) as arena:
            for epoch in arena.epochs:
                packed = arena.epoch_map(epoch)
                plain = text.map_for(epoch)
                for p in probes:
                    assert packed.lookup(p) == plain.lookup(p)
                assert packed.lookup_run(sorted(probes)) == [
                    plain.lookup(p) for p in sorted(probes)
                ]

    def test_records_materialize_lazily(self, map_dir):
        with CodeMapArena.open(build_arena(map_dir)) as arena:
            packed = arena.epoch_map(0)
            assert not packed._rows
            hit = packed.lookup(0x6080_1000)
            assert hit is not None and hit.name == "c.D.n"
            assert len(packed._rows) == 1

    def test_stale_reasons_name_the_change(self, map_dir):
        build_arena(map_dir)
        with CodeMapArena.open(arena_path_for(map_dir)) as arena:
            assert arena.stale_reasons(map_dir) == []
            victim = map_dir / "jit-map.00002"
            victim.write_text(
                victim.read_text() + rec(0x6080_3000).to_line() + "\n"
            )
            assert any(
                "changed on disk" in r
                for r in arena.stale_reasons(map_dir)
            )
        with pytest.raises(ArenaError, match="stale"):
            CodeMapArena.open_fresh(map_dir)

    def test_source_digests_cover_every_map_file(self, map_dir):
        names = [name for name, _, _ in source_digests(map_dir)]
        assert names == sorted(
            p.name for p in map_dir.iterdir() if p.name.startswith("jit-map.")
        )


class TestDamagedArenaRejected:
    """Every corruption is caught at open; `load_dir` then silently
    parses the text maps instead."""

    def damage(self, map_dir, mutate):
        path = build_arena(map_dir)
        mutate(path)
        return path

    @pytest.mark.parametrize("mutate", [
        lambda p: p.write_bytes(p.read_bytes()[:5]),          # torn prelude
        lambda p: p.write_bytes(p.read_bytes()[:-3]),         # torn body
        lambda p: p.write_bytes(b"XXXX" + p.read_bytes()[4:]),  # bad magic
        lambda p: p.write_bytes(
            p.read_bytes()[:4] + b"\xff\xff" + p.read_bytes()[6:]
        ),                                                    # bad version
        lambda p: p.write_bytes(
            p.read_bytes()[:-1] + bytes([p.read_bytes()[-1] ^ 0xFF])
        ),                                                    # bit flip
    ], ids=["torn-prelude", "torn-body", "bad-magic", "bad-version",
            "bit-flip"])
    def test_open_rejects(self, map_dir, mutate):
        path = self.damage(map_dir, mutate)
        with pytest.raises(ArenaError):
            CodeMapArena.open(path)
        # ... and resolution survives on the text path, identically.
        idx = CodeMapIndex.load_dir(map_dir)
        text = text_index(map_dir)
        assert idx.epochs == text.epochs

    def test_require_mode_raises_on_damage(self, map_dir):
        self.damage(map_dir, lambda p: p.write_bytes(p.read_bytes()[:9]))
        with pytest.raises(ArenaError):
            CodeMapArena.open_fresh(map_dir)

    def test_missing_arena_require_raises_auto_falls_back(self, map_dir):
        with pytest.raises(ArenaError):
            CodeMapArena.open_fresh(map_dir)
        assert CodeMapIndex.load_dir(map_dir).epochs == (0, 1, 2)


class TestLoadDirIntegration:
    def test_auto_uses_fresh_arena(self, map_dir):
        build_arena(map_dir)
        idx = CodeMapIndex.load_dir(map_dir)
        assert all(
            isinstance(idx.map_for(e), ArenaCodeMap) for e in idx.epochs
        )

    def test_auto_never_uses_stale_arena(self, map_dir):
        build_arena(map_dir)
        victim = map_dir / "jit-map.00000"
        victim.write_text(
            victim.read_text() + rec(0x6090_0000).to_line() + "\n"
        )
        idx = CodeMapIndex.load_dir(map_dir)
        assert not any(
            isinstance(idx.map_for(e), ArenaCodeMap) for e in idx.epochs
        )
        # The new record is visible — proof we read the current maps.
        assert idx.map_for(0).lookup(0x6090_0000) is not None

    def test_quarantine_forces_text_path(self, map_dir):
        # Salvage moves a quarantined epoch's file out of the directory;
        # the surviving epochs must come from the text maps (the arena
        # still packs the lost epoch, so it would resolve differently).
        build_arena(map_dir)
        (map_dir / "jit-map.00001").unlink()
        idx = CodeMapIndex.load_dir(map_dir, quarantined=(1,))
        assert not any(
            isinstance(idx.map_for(e), ArenaCodeMap) for e in idx.epochs
        )

    def test_dropping_the_index_frees_the_arena(self, map_dir, monkeypatch):
        import gc
        import weakref

        build_arena(map_dir)
        opened = []
        open_fresh = CodeMapArena.open_fresh.__func__

        def spy(cls, path):
            arena = open_fresh(cls, path)
            opened.append(weakref.ref(arena))
            return arena

        monkeypatch.setattr(CodeMapArena, "open_fresh", classmethod(spy))
        gc.disable()
        try:
            idx = CodeMapIndex.load_dir(map_dir)
            assert idx.map_for(0).lookup(0x6080_0000 + 8).name == "a.B.m"
            del idx
            # No reference cycle: reference counting alone frees it.
            assert [ref() for ref in opened] == [None]
        finally:
            gc.enable()

    def test_arena_false_ignores_arena(self, map_dir):
        # The text loader parses the map files even next to a fresh arena.
        build_arena(map_dir)
        idx = text_index(map_dir)
        assert not any(
            isinstance(idx.map_for(e), ArenaCodeMap) for e in idx.epochs
        )


class TestPickling:
    def test_arena_codemap_ships_path_and_epoch(self, map_dir):
        with CodeMapArena.open(build_arena(map_dir)) as arena:
            packed = arena.epoch_map(1)
            blob = pickle.dumps(packed)
            # The payload is a (path, epoch) stub, not the columns.
            assert len(blob) < 400
            clone = pickle.loads(blob)
            assert clone.epoch == 1
            assert clone.records == packed.records

    def test_unpickling_shares_one_mapping_per_process(self, map_dir):
        with CodeMapArena.open(build_arena(map_dir)) as arena:
            a = pickle.loads(pickle.dumps(arena.epoch_map(0)))
            b = pickle.loads(pickle.dumps(arena.epoch_map(1)))
            assert a._names is b._names


class TestFaultHarness:
    def test_torn_write_fault_leaves_detectable_damage(self, map_dir):
        with arm(FaultPlan(ARENA_WRITE, hit=1, seed=5)):
            with pytest.raises(InjectedFault):
                build_arena(map_dir)
        path = arena_path_for(map_dir)
        assert path.exists()  # the torn prefix landed at the final path
        with pytest.raises(ArenaError):
            CodeMapArena.open(path)
        # Degraded, never wrong: text resolution still works.
        assert CodeMapIndex.load_dir(map_dir).epochs == (0, 1, 2)

    def test_rebuild_after_torn_write_recovers(self, map_dir):
        with arm(FaultPlan(ARENA_WRITE, hit=1, seed=5)):
            with pytest.raises(InjectedFault):
                build_arena(map_dir)
        path = build_arena(map_dir)
        arena = CodeMapArena.open_fresh(map_dir)
        assert arena.path == path
        arena.close()


class TestSessionIntegration:
    @pytest.fixture(scope="class")
    def vrun(self, tmp_path_factory):
        session_dir = tmp_path_factory.mktemp("arena-session")
        return viprof_profile_session(session_dir)

    def test_session_stop_builds_fresh_arena(self, vrun):
        arena = CodeMapArena.open_fresh(vrun.session_dir / "jit-maps")
        assert arena.records > 0
        arena.close()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_reports_byte_and_stats_identical(self, vrun, workers):
        arena_path = arena_path_for(vrun.session_dir / "jit-maps")
        blob = arena_path.read_bytes()
        packed = render(vrun, workers)
        try:
            arena_path.unlink()
            text = render(vrun, workers)
        finally:
            arena_path.write_bytes(blob)
        assert packed[0] == text[0]  # report bytes
        assert packed[1] == text[1]  # stage stats

    def test_salvage_drops_the_stale_arena(self, vrun, tmp_path):
        import shutil

        from repro.viprof.salvage import salvage_session

        clone = tmp_path / "clone"
        shutil.copytree(vrun.session_dir, clone)
        assert arena_path_for(clone / "jit-maps").exists()
        salvage_session(clone)
        assert not arena_path_for(clone / "jit-maps").exists()


def viprof_profile_session(session_dir):
    from repro import viprof_profile

    return viprof_profile(
        make_tiny_workload(base_time_s=0.25), period=20_000,
        session_dir=session_dir, noise=False,
    )


def render(run, workers):
    vr = run.viprof_report(workers=workers)
    s = vr.jit_stats
    text = vr.report.format_table(limit=20) + "\n"
    text += (
        f"{s.jit_samples} JIT samples, "
        f"{100 * s.resolution_rate:.1f}% resolved\n"
    )
    return text, vr.stage_stats

"""Property-style tests for backward epoch-walk resolution (paper §3.2).

A randomized model of the agent/GC interaction: methods are compiled at
fresh addresses, the copying collector moves live bodies and *recycles*
their old address ranges for later compilations, and a partial map is
written per epoch exactly as the agent writes it (this epoch's compiles
plus bodies moved by the collection that opened the epoch).  The model
tracks ground truth — which body occupied every address during every
epoch — and asserts that ``CodeMapIndex.resolve`` attributes each sample
to the most recent occupant, across many random schedules.
"""

import random

import pytest

from repro.viprof.codemap import CodeMapIndex, CodeMapRecord, CodeMapWriter

BODY_SIZE = 0x100  # uniform sizes keep free-range reuse exact


class EpochWorld:
    """Randomized compile/move/GC schedule with ground-truth tracking."""

    def __init__(self, seed: int, epochs: int = 10):
        self.rng = random.Random(seed)
        self.epochs = epochs
        self.live: dict[str, int] = {}  # name -> current address
        self.free: list[int] = []  # recycled address ranges
        self.bump = 0x6000_0000
        self.counter = 0
        #: per-epoch snapshot: name -> address during that epoch
        self.snapshots: list[dict[str, int]] = []

    def alloc(self) -> int:
        # Prefer recycling a freed range: that is the hard case the
        # backward walk must get right (same address, different method).
        if self.free and self.rng.random() < 0.7:
            return self.free.pop(self.rng.randrange(len(self.free)))
        addr = self.bump
        self.bump += BODY_SIZE
        return addr

    def run(self, map_dir) -> CodeMapIndex:
        writer = CodeMapWriter(map_dir)
        moved_by_prev_gc: dict[str, int] = {}
        for epoch in range(self.epochs):
            compiled: dict[str, int] = {}
            for _ in range(self.rng.randrange(1, 4)):
                name = f"m{self.counter}"
                self.counter += 1
                addr = self.alloc()
                self.live[name] = addr
                compiled[name] = addr
            # The epoch's partial map: this epoch's compiles + bodies the
            # previous collection moved, at their current addresses.
            records = [
                CodeMapRecord(
                    address=a, size=BODY_SIZE, tier="base", name=n
                )
                for n, a in compiled.items()
            ] + [
                CodeMapRecord(
                    address=a, size=BODY_SIZE, tier="base", name=n,
                    moved=True,
                )
                for n, a in moved_by_prev_gc.items()
                if n not in compiled
            ]
            writer.write(epoch, records)
            self.snapshots.append(dict(self.live))
            # GC closing this epoch: move a random subset of live bodies.
            moved_by_prev_gc = {}
            names = sorted(self.live)
            self.rng.shuffle(names)
            for name in names[: self.rng.randrange(0, len(names) + 1)]:
                old = self.live[name]
                self.free.append(old)
                self.live[name] = self.alloc()
                moved_by_prev_gc[name] = self.live[name]
        return CodeMapIndex.load_dir(map_dir)


@pytest.mark.parametrize("seed", range(12))
def test_every_sample_resolves_to_most_recent_occupant(tmp_path, seed):
    world = EpochWorld(seed)
    index = world.run(tmp_path)
    checked = 0
    for epoch, snapshot in enumerate(world.snapshots):
        for name, addr in snapshot.items():
            # Sample anywhere inside the body while it lived there.
            pc = addr + world.rng.randrange(BODY_SIZE)
            hit = index.resolve(epoch, pc)
            assert hit is not None, (
                f"epoch {epoch}: pc {pc:#x} (truth {name}) is an orphan"
            )
            record, found_epoch = hit
            assert record.name == name, (
                f"epoch {epoch}: pc {pc:#x} resolved to {record.name} "
                f"(epoch {found_epoch}), truth is {name}"
            )
            assert found_epoch <= epoch
            checked += 1
    assert checked > world.epochs  # the schedule produced real coverage


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_recycled_addresses_are_attributed_per_epoch(tmp_path, seed):
    """An address reused across epochs resolves differently per epoch."""
    world = EpochWorld(seed, epochs=12)
    index = world.run(tmp_path)
    # Find an address whose occupant changed between two epochs.
    reused = None
    for e1, s1 in enumerate(world.snapshots):
        owners1 = {a: n for n, a in s1.items()}
        for e2 in range(e1 + 1, len(world.snapshots)):
            owners2 = {a: n for n, a in world.snapshots[e2].items()}
            for addr, n1 in owners1.items():
                n2 = owners2.get(addr)
                if n2 is not None and n2 != n1:
                    reused = (e1, e2, addr, n1, n2)
                    break
            if reused:
                break
        if reused:
            break
    if reused is None:
        pytest.skip("schedule produced no address reuse for this seed")
    e1, e2, addr, n1, n2 = reused
    assert index.resolve(e1, addr)[0].name == n1
    assert index.resolve(e2, addr)[0].name == n2


@pytest.mark.parametrize("seed", [1, 4])
def test_ablation_own_epoch_only_loses_samples(tmp_path, seed):
    """backward=False must never resolve *more* than the full walk."""
    world = EpochWorld(seed)
    index = world.run(tmp_path)
    full = own = 0
    for epoch, snapshot in enumerate(world.snapshots):
        for name, addr in snapshot.items():
            if index.resolve(epoch, addr) is not None:
                full += 1
            if index.resolve(epoch, addr, backward=False) is not None:
                own += 1
    assert own <= full
    assert full == sum(len(s) for s in world.snapshots)


# ----------------------------------------------------------------------
# Quarantine barriers (crash recovery): resolving over a salvaged map
# subset must never *invent* an attribution the full walk would not make.
# ----------------------------------------------------------------------

import re
import shutil

from repro.viprof.codemap import RESOLVE_BLOCKED

_MAP_NAME_RE = re.compile(r"^jit-map\.(\d{5})$")


def _guarded_index(map_dir, dest, quarantine):
    """The salvaged view: quarantined epochs' maps removed from disk,
    their epochs fenced off as barriers."""
    dest.mkdir()
    for p in sorted(map_dir.iterdir()):
        m = _MAP_NAME_RE.match(p.name)
        if m and int(m.group(1)) not in quarantine:
            shutil.copy(p, dest / p.name)
    return CodeMapIndex.load_dir(dest, quarantined=quarantine)


@pytest.mark.parametrize("seed", range(8))
def test_quarantined_walk_agrees_with_full_walk_or_blocks(tmp_path, seed):
    """For every ground-truth sample: the guarded walk either returns
    exactly the full walk's answer, or RESOLVE_BLOCKED — never a
    different (in particular never an *older* occupant of a recycled
    address, which is how a missing map could lie)."""
    world = EpochWorld(seed)
    full = world.run(tmp_path / "maps")
    rng = random.Random(seed ^ 0xA5A5)
    quarantine = frozenset(
        e for e in range(world.epochs) if rng.random() < 0.3
    )
    guarded = _guarded_index(tmp_path / "maps", tmp_path / "q", quarantine)

    agreed = blocked = 0
    for epoch, snapshot in enumerate(world.snapshots):
        for name, addr in snapshot.items():
            pc = addr + rng.randrange(BODY_SIZE)
            want = full.resolve(epoch, pc)
            assert want is not None  # truth coverage (tested above)
            got = guarded.resolve(epoch, pc)
            if got is RESOLVE_BLOCKED:
                blocked += 1
                # A barrier is only justified by a quarantined epoch
                # between the full walk's hit and the sample's epoch.
                _, found_epoch = want
                assert any(
                    found_epoch <= q <= epoch for q in quarantine
                ), (
                    f"epoch {epoch}: pc {pc:#x} blocked with no "
                    f"quarantined epoch in [{found_epoch}, {epoch}]"
                )
                continue
            agreed += 1
            assert got is not None
            assert got[0].name == want[0].name == name
            assert got[1] == want[1] <= epoch
    if not quarantine:
        assert blocked == 0
    assert agreed > 0


@pytest.mark.parametrize("seed", [0, 2, 6])
def test_sample_in_quarantined_epoch_always_blocks(tmp_path, seed):
    """A sample tagged with a quarantined epoch hits the barrier
    immediately: its own epoch's compilations are unknowable, so *any*
    answer could be a newer method the lost map would have named."""
    world = EpochWorld(seed)
    world.run(tmp_path / "maps")
    victim = world.epochs // 2
    guarded = _guarded_index(
        tmp_path / "maps", tmp_path / "q", frozenset({victim})
    )
    snapshot = world.snapshots[victim]
    for name, addr in snapshot.items():
        assert guarded.resolve(victim, addr) is RESOLVE_BLOCKED


@pytest.mark.parametrize("seed", [1, 5])
def test_quarantine_never_widens_resolution(tmp_path, seed):
    """Counting check across random subsets: guarded hits are a subset
    of full hits — fencing epochs off can only lose attributions, never
    create ones the full walk would not have made."""
    world = EpochWorld(seed)
    full = world.run(tmp_path / "maps")
    rng = random.Random(seed * 31 + 7)
    for trial in range(4):
        quarantine = frozenset(
            e for e in range(world.epochs) if rng.random() < 0.4
        )
        guarded = _guarded_index(
            tmp_path / "maps", tmp_path / f"q{trial}", quarantine
        )
        for epoch, snapshot in enumerate(world.snapshots):
            for _, addr in snapshot.items():
                got = guarded.resolve(epoch, addr)
                if got is RESOLVE_BLOCKED or got is None:
                    continue
                assert got == full.resolve(epoch, addr)


# ----------------------------------------------------------------------
# The batched walk against the reference per-address walk.
# ----------------------------------------------------------------------

from tests.pipeline.oracle import walk  # noqa: E402


@pytest.mark.parametrize("seed", range(6))
def test_batched_walk_matches_per_address_oracle(tmp_path, seed):
    """``resolve_run`` over an ascending PC run equals the oracle's
    per-address walk — clamping, barriers and the ablation included —
    for random quarantine subsets (the first trial: none), both walk
    directions, and sample epochs from -1 to past the last map."""
    world = EpochWorld(seed)
    world.run(tmp_path / "maps")
    rng = random.Random(seed + 101)
    bodies = sorted({a for snap in world.snapshots for a in snap.values()})
    for trial in range(3):
        quarantine = frozenset(
            e for e in range(world.epochs) if trial and rng.random() < 0.3
        )
        index = _guarded_index(
            tmp_path / "maps", tmp_path / f"q{trial}", quarantine
        )
        for epoch in range(-1, world.epochs + 2):
            # PCs inside recycled bodies, plus a miss below and above.
            pcs = sorted(
                {a + rng.randrange(BODY_SIZE) for a in bodies}
                | {0x10, world.bump + BODY_SIZE}
            )
            for backward in (True, False):
                assert index.resolve_run(epoch, pcs, backward) == [
                    walk(index, epoch, pc, backward) for pc in pcs
                ]

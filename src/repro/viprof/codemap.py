"""Epoch-stamped JIT code maps.

The VM agent writes one map file per GC epoch, *just before* the collection
that closes the epoch.  Each map is **partial**: it contains only methods
compiled (or recompiled) during that epoch plus methods moved by the
previous collection — the paper's key amortization trick.

Resolution (paper §3.2): a sample stamped with epoch *e* is looked up in
map *e*; on a miss the tools search map *e-1*, *e-2*, ... until the first
map containing the address.  That guarantees attribution to the most
recently compiled-or-moved method that occupied the address at the sample's
time, even though addresses are recycled across epochs by the copying
collector.

Map files are plain text (one record per line: start, size, tier, name),
matching the flavour of Jikes RVM's own map artifacts::

    # viprof code map epoch 7
    0x60812340 0x00000420 O1 org.example.app.Scanner.parseLine

Records written for a body *flagged as moved* by the previous collection
carry a ``/M`` marker on the tier field (``O1/M``); the marker lets the
static artifact analyzer (:mod:`repro.statcheck`) verify move provenance
without replaying the run.  Readers without the marker see a plain tier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.errors import CodeMapError
from repro.faults import injector as faults
from repro.os.intervals import Interval, IntervalIndex

__all__ = [
    "CodeMapRecord",
    "CodeMapWriter",
    "CodeMap",
    "CodeMapIndex",
    "RESOLVE_BLOCKED",
]

#: Tier-field suffix marking a record logged because the previous GC moved it.
MOVED_MARKER = "/M"

_FILE_RE = re.compile(r"^jit-map\.(\d{5})$")
_HEADER_RE = re.compile(r"^# viprof code map epoch (\d+)$")
_LINE_RE = re.compile(
    r"^(0x[0-9a-fA-F]+) (0x[0-9a-fA-F]+) (\S+) (.+)$"
)


@dataclass(frozen=True, slots=True, order=True)
class CodeMapRecord:
    """One mapped method body: image-absolute address range plus identity.

    ``moved`` is True for records written because the previous collection
    relocated the body (the agent's flag-and-defer path), False for records
    written because the body was compiled during the epoch.
    """

    address: int
    size: int
    tier: str
    name: str
    moved: bool = False

    def __post_init__(self) -> None:
        if self.address <= 0:
            raise CodeMapError(f"bad address {self.address:#x} for {self.name!r}")
        if self.size <= 0:
            raise CodeMapError(f"bad size {self.size} for {self.name!r}")

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, addr: int) -> bool:
        return self.address <= addr < self.end

    def to_line(self) -> str:
        tier = self.tier + MOVED_MARKER if self.moved else self.tier
        return f"{self.address:#010x} {self.size:#010x} {tier} {self.name}"

    @classmethod
    def from_line(cls, line: str) -> "CodeMapRecord":
        m = _LINE_RE.match(line)
        if m is None:
            raise CodeMapError(f"malformed code-map line: {line!r}")
        tier = m.group(3)
        moved = tier.endswith(MOVED_MARKER)
        if moved:
            tier = tier[: -len(MOVED_MARKER)]
        return cls(
            address=int(m.group(1), 16),
            size=int(m.group(2), 16),
            tier=tier,
            name=m.group(4),
            moved=moved,
        )


class CodeMapWriter:
    """Writes per-epoch map files into a session directory."""

    def __init__(self, map_dir: Path | str) -> None:
        self.map_dir = Path(map_dir)
        self.map_dir.mkdir(parents=True, exist_ok=True)
        self.maps_written = 0
        self.records_written = 0
        self._epochs_seen: set[int] = set()

    def path_for(self, epoch: int) -> Path:
        return self.map_dir / f"jit-map.{epoch:05d}"

    def write(self, epoch: int, records: Iterable[CodeMapRecord]) -> Path:
        """Write the (partial) map for ``epoch``.

        Raises:
            CodeMapError: if a map for this epoch was already written
                (epochs close exactly once).
        """
        if epoch < 0:
            raise CodeMapError(f"{self.map_dir}: negative epoch {epoch}")
        if epoch in self._epochs_seen:
            raise CodeMapError(
                f"{self.path_for(epoch)}: map for epoch {epoch} "
                "already written"
            )
        self._epochs_seen.add(epoch)
        path = self.path_for(epoch)
        recs = sorted(records)
        lines = [f"# viprof code map epoch {epoch}"]
        lines.extend(r.to_line() for r in recs)
        content = "\n".join(lines) + "\n"
        if faults.armed():
            faults.fire(
                faults.CODEMAP_WRITE,
                effect=lambda rng: self._torn_write(path, content, rng),
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        self.maps_written += 1
        self.records_written += len(recs)
        return path

    @staticmethod
    def _torn_write(path: Path, content: str, rng) -> None:
        """Fault effect (``codemap.write``): the crash lands mid-write, so
        a prefix of the map text reaches the file.

        The cut is constrained to land inside the *address field* of a
        record line (or inside the header when the map has no records), so
        the damage is always detectable as a malformed file.  A cut at a
        line boundary would leave a well-formed shorter map — a loss the
        text format fundamentally cannot detect (no record count, no
        checksum; ``docs/robustness.md`` documents the limitation) — so
        the harness does not pretend to test it.
        """
        lines = content.splitlines(keepends=True)
        if len(lines) == 1:
            # Header-only map: tear inside the header line.
            cut = rng.randrange(1, max(2, len(lines[0]) - 1))
        else:
            victim = rng.randrange(1, len(lines))
            prefix = sum(len(ln) for ln in lines[:victim])
            # Cut inside the first hex field ("0x......"), which cannot
            # parse as a full record line.
            cut = prefix + rng.randrange(1, 9)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[:cut])


class CodeMap:
    """One epoch's records, indexed for address lookup.

    Records within a single epoch must be non-overlapping: the bump
    allocator never reuses space between collections (property-tested in
    ``tests/viprof/test_codemap_properties.py``).
    """

    def __init__(
        self,
        epoch: int,
        records: list[CodeMapRecord],
        source: Path | None = None,
    ):
        self.epoch = epoch
        self.source = source
        self._records = sorted(records)
        self._index: IntervalIndex[CodeMapRecord] = IntervalIndex(
            Interval(r.address, r.end, r) for r in self._records
        )
        bad = self._index.overlapping_pairs()
        if bad:
            a, b = bad[0]
            raise CodeMapError(
                f"{self._where()}records {a.payload.name!r} and "
                f"{b.payload.name!r} overlap"
            )

    def _where(self) -> str:
        prefix = f"{self.source}: " if self.source is not None else ""
        return f"{prefix}epoch {self.epoch}: "

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[CodeMapRecord, ...]:
        return tuple(self._records)

    def lookup(self, addr: int) -> CodeMapRecord | None:
        iv = self._index.first_covering(addr)
        return iv.payload if iv is not None else None

    def lookup_run(
        self, addrs: Iterable[int]
    ) -> list[CodeMapRecord | None]:
        """:meth:`lookup` over an ascending run of addresses (the columnar
        resolver's per-epoch bucket), one interval probe per *distinct
        covering record* instead of one bisect per address."""
        return [
            iv.payload if iv is not None else None
            for iv in self._index.first_covering_many(addrs)
        ]

    @classmethod
    def load(cls, path: Path) -> "CodeMap":
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise CodeMapError(f"{path}: empty map file")
        m = _HEADER_RE.match(lines[0])
        if m is None:
            raise CodeMapError(f"{path}: bad header {lines[0]!r}")
        epoch = int(m.group(1))
        records = []
        for lineno, ln in enumerate(lines[1:], start=2):
            if not ln.strip():
                continue
            try:
                records.append(CodeMapRecord.from_line(ln))
            except CodeMapError as e:
                raise CodeMapError(
                    f"{path}: epoch {epoch}: line {lineno}: {e}"
                ) from None
        return cls(epoch, records, source=path)


class _Blocked:
    """Singleton sentinel: the backward walk hit a quarantined epoch
    before any map contained the address (see
    :meth:`CodeMapIndex.resolve`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RESOLVE_BLOCKED"


#: Returned by :meth:`CodeMapIndex.resolve` when a quarantined epoch
#: blocks the walk.  Distinct from None (no map ever held the address).
RESOLVE_BLOCKED = _Blocked()


class CodeMapIndex:
    """All of a session's maps plus the backward-resolution algorithm.

    The backward walk is memoized: once a session's maps are loaded they
    are immutable, so the walk is a pure function of ``(top epoch, addr,
    backward)`` and its result — including a miss — can never change.  A
    bounded memo (it stops inserting once full) short-circuits repeat
    walks for hot PCs, which is
    most of a profile (``memo_hits`` counts the short-circuits;
    ``fallback_steps`` counts only real walk steps).

    ``quarantined`` marks epochs whose maps existed but were damaged and
    set aside by salvage (``viprof recover``).  A quarantined epoch is a
    **barrier**: the walk cannot see what the lost map recorded, and the
    copying collector recycles addresses across epochs, so continuing
    past it could silently attribute a PC to an *older* occupant of the
    address.  The walk therefore returns :data:`RESOLVE_BLOCKED` instead
    — the degraded pipeline counts those samples as unresolved, keeping
    every resolution it *does* make a subset of the undamaged run's
    (property-tested in ``tests/viprof/test_epoch_walk_properties.py``).
    An epoch absent from both ``maps`` and ``quarantined`` is skipped
    exactly as before (pre-salvage behaviour is unchanged).
    """

    #: Bound on memoized (top, addr, backward) walk results.
    MEMO_CAPACITY = 1 << 13

    def __init__(
        self,
        maps: dict[int, CodeMap],
        quarantined: Iterable[int] = (),
    ):
        self._maps = maps
        self.quarantined = frozenset(quarantined)
        overlap = self.quarantined & set(maps)
        if overlap:
            raise CodeMapError(
                f"epochs {sorted(overlap)} both loaded and quarantined"
            )
        self.lookups = 0
        self.fallback_steps = 0  # how far backward searches walked, total
        self.memo_hits = 0
        self._memo: dict[
            tuple[int, int, bool], tuple[CodeMapRecord, int] | _Blocked | None
        ] = {}

    @classmethod
    def load_dir(
        cls,
        map_dir: Path | str,
        quarantined: Iterable[int] = (),
        arena: bool | str = "auto",
    ) -> "CodeMapIndex":
        """Load a session's maps, preferring the compiled arena.

        ``arena`` controls the compiled-artifact path
        (:mod:`repro.viprof.arena`):

        * ``"auto"`` (default) — if a valid arena file exists **and** its
          recorded source digests still match the map files, back the
          index with zero-copy mmap tables; otherwise parse the text
          maps exactly as before.  Never writes anything.
        * ``False`` — text maps only (the parity baseline).
        * ``"require"`` — raise :class:`~repro.viprof.arena.ArenaError`
          unless a fresh arena is usable (tests and ``viprof index
          --check`` use this to prove the fast path was actually taken).

        Quarantined sessions always use the text path: salvage deletes
        the arena, and the barrier walk is the well-tested authority on
        damaged sessions.
        """
        map_dir = Path(map_dir)
        quarantined = tuple(quarantined)
        if arena is not False and not quarantined:
            from repro.viprof import arena as arena_mod

            try:
                opened = arena_mod.CodeMapArena.open_fresh(map_dir)
            except arena_mod.ArenaError:
                if arena == "require":
                    raise
            else:
                return cls(opened.maps(), quarantined=quarantined)
        elif arena == "require":
            raise CodeMapError(
                f"{map_dir}: arena required but session is quarantined"
            )
        maps: dict[int, CodeMap] = {}
        for path in sorted(map_dir.iterdir()):
            if not path.is_file():
                continue
            m = _FILE_RE.match(path.name)
            if m is None:
                continue
            cm = CodeMap.load(path)
            if int(m.group(1)) != cm.epoch:
                raise CodeMapError(
                    f"{path}: filename epoch {m.group(1)} != header epoch {cm.epoch}"
                )
            maps[cm.epoch] = cm
        return cls(maps, quarantined=quarantined)

    @property
    def epochs(self) -> tuple[int, ...]:
        return tuple(sorted(self._maps))

    def map_for(self, epoch: int) -> CodeMap | None:
        return self._maps.get(epoch)

    def resolve(
        self, epoch: int, addr: int, backward: bool = True
    ) -> tuple[CodeMapRecord, int] | _Blocked | None:
        """Resolve ``addr`` for a sample taken during ``epoch``.

        Searches the sample's epoch first, then walks strictly backwards.
        Returns ``(record, epoch_found)`` or None when no map ever held the
        address (e.g. the method was compiled after the last map write and
        the final flush is missing).

        With a non-empty ``quarantined`` set the walk stops at the first
        quarantined epoch it meets and returns :data:`RESOLVE_BLOCKED`:
        the damaged map could have held the address, so any hit below the
        barrier might be a stale occupant.

        ``backward=False`` is the ablation: consult only the sample's own
        epoch map, which loses every sample whose method was compiled or
        moved in an earlier epoch.
        """
        if self.quarantined:
            return self._resolve_guarded(epoch, addr, backward)
        if not self._maps:
            return None
        self.lookups += 1
        top = min(epoch, max(self._maps)) if epoch >= 0 else max(self._maps)
        key = (top, addr, backward)
        memo = self._memo
        if key in memo:
            self.memo_hits += 1
            return memo[key]
        result: tuple[CodeMapRecord, int] | None = None
        bottom = top if not backward else min(self._maps)
        for e in range(top, bottom - 1, -1):
            cm = self._maps.get(e)
            if cm is None:
                continue
            rec = cm.lookup(addr)
            if rec is not None:
                result = (rec, e)
                break
            self.fallback_steps += 1
        self._memo_put(key, result)
        return result

    def resolve_run(
        self, epoch: int, addrs: Iterable[int], backward: bool = True
    ) -> list[tuple[CodeMapRecord, int] | _Blocked | None]:
        """Batched :meth:`resolve` for an **ascending** run of addresses
        sharing one sample epoch (the columnar resolver's bucket shape).

        Walks the epochs once for the whole run — each visited map is
        probed with one :meth:`CodeMap.lookup_run` over the still-pending
        addresses — instead of restarting the backward walk per address.
        Results, the memo contents, and every counter (``lookups``,
        ``memo_hits``, ``fallback_steps``) are identical to calling
        :meth:`resolve` per address.
        """
        if self.quarantined or not self._maps:
            # Guarded walks stop at per-address barriers; keep the
            # well-tested scalar path authoritative for salvage mode.
            return [self.resolve(epoch, a, backward) for a in addrs]
        addrs = list(addrs)
        if not addrs:
            return []
        self.lookups += len(addrs)
        top = min(epoch, max(self._maps)) if epoch >= 0 else max(self._maps)
        memo = self._memo
        results: list[tuple[CodeMapRecord, int] | _Blocked | None] = (
            [None] * len(addrs)
        )
        pending: list[tuple[int, int]] = []  # (position, addr)
        for pos, addr in enumerate(addrs):
            key = (top, addr, backward)
            if key in memo:
                self.memo_hits += 1
                results[pos] = memo[key]
            else:
                pending.append((pos, addr))
        bottom = top if not backward else min(self._maps)
        for e in range(top, bottom - 1, -1):
            if not pending:
                break
            cm = self._maps.get(e)
            if cm is None:
                continue
            found = cm.lookup_run([a for _, a in pending])
            still: list[tuple[int, int]] = []
            for (pos, addr), rec in zip(pending, found):
                if rec is not None:
                    results[pos] = (rec, e)
                    self._memo_put((top, addr, backward), (rec, e))
                else:
                    self.fallback_steps += 1
                    still.append((pos, addr))
            pending = still
        for pos, addr in pending:
            self._memo_put((top, addr, backward), None)
        return results

    def _memo_put(
        self,
        key: tuple[int, int, bool],
        result: tuple[CodeMapRecord, int] | _Blocked | None,
    ) -> None:
        if len(self._memo) < self.MEMO_CAPACITY:
            self._memo[key] = result

    def _resolve_guarded(
        self, epoch: int, addr: int, backward: bool
    ) -> tuple[CodeMapRecord, int] | _Blocked | None:
        """The barrier walk used when some epochs are quarantined.

        Identical to the plain walk except a quarantined epoch ends the
        search with :data:`RESOLVE_BLOCKED`, and clamping/bottoming use
        healthy *and* quarantined epochs (a lost newest map must not make
        later samples silently consult older maps).
        """
        self.lookups += 1
        known = self._maps.keys() | self.quarantined
        known_top = max(known)
        top = min(epoch, known_top) if epoch >= 0 else known_top
        key = (top, addr, backward)
        memo = self._memo
        if key in memo:
            self.memo_hits += 1
            return memo[key]
        result: tuple[CodeMapRecord, int] | _Blocked | None = None
        bottom = top if not backward else min(known)
        for e in range(top, bottom - 1, -1):
            if e in self.quarantined:
                result = RESOLVE_BLOCKED
                break
            cm = self._maps.get(e)
            if cm is None:
                continue
            rec = cm.lookup(addr)
            if rec is not None:
                result = (rec, e)
                break
            self.fallback_steps += 1
        self._memo_put(key, result)
        return result

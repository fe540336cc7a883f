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
from itertools import pairwise
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import CodeMapError
from repro.faults import injector as faults
from repro.os.intervals import PackedIntervalTable

__all__ = [
    "CodeMapRecord",
    "CodeMapWriter",
    "CodeMap",
    "CodeMapIndex",
    "RESOLVE_BLOCKED",
    "map_files",
    "parse_map",
    "read_map_files",
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


class PackedCodeMap:
    """Address lookup over one epoch's records, sorted and disjoint in a
    :class:`~repro.os.intervals.PackedIntervalTable`.

    Shared by the text-parsed :class:`CodeMap` and the arena's
    :class:`~repro.viprof.arena.ArenaCodeMap`; the two differ only in how
    table row ``i`` becomes a :class:`CodeMapRecord` (:meth:`_row`).
    """

    __slots__ = ()
    _table: PackedIntervalTable

    def _row(self, i: int) -> CodeMapRecord:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._table)

    @property
    def records(self) -> tuple[CodeMapRecord, ...]:
        return tuple(map(self._row, range(len(self))))

    def lookup(self, addr: int) -> CodeMapRecord | None:
        i = self._table.first_covering(addr)
        return self._row(i) if i >= 0 else None

    def lookup_run(
        self, addrs: Iterable[int]
    ) -> list[CodeMapRecord | None]:
        """:meth:`lookup` over an ascending run of addresses (the
        resolver's per-epoch bucket): one packed-table probe run."""
        row = self._row
        return [
            row(i) if i >= 0 else None
            for i in self._table.first_covering_many(addrs)
        ]


class CodeMap(PackedCodeMap):
    """One epoch's records, parsed from its text map file.

    Records within a single epoch must be non-overlapping: the bump
    allocator never reuses space between collections (property-tested in
    ``tests/viprof/test_codemap_properties.py``).
    """

    __slots__ = ("epoch", "source", "_records", "_table")

    def __init__(
        self,
        epoch: int,
        records: Iterable[CodeMapRecord],
        source: Path | None = None,
    ):
        self.epoch = epoch
        self.source = source
        self._records = recs = sorted(records)
        # Sorted by address, the records are disjoint iff each one starts
        # at or after the end of the one before it.
        for a, b in pairwise(recs):
            if b.address < a.end:
                where = f"{source}: " if source is not None else ""
                raise CodeMapError(
                    f"{where}epoch {epoch}: records {a.name!r} and "
                    f"{b.name!r} overlap"
                )
        self._table = PackedIntervalTable(
            [r.address for r in recs], [r.end for r in recs]
        )

    def _row(self, i: int) -> CodeMapRecord:
        return self._records[i]

    @classmethod
    def load(cls, path: Path, blob: bytes | None = None) -> "CodeMap":
        """Parse a map file strictly (``blob``: its bytes, when already
        read): the first problem :func:`parse_map` finds raises
        :class:`~repro.errors.CodeMapError` naming the file, and the
        epoch and line once the header has given the epoch."""
        epoch, records, problems = parse_map(path, blob)
        if problems:
            where, what = problems[0]
            context = "" if epoch is None else f"epoch {epoch}: {where}: "
            raise CodeMapError(f"{path}: {context}{what}")
        return cls(epoch, records, source=path)


def map_files(map_dir: Path | str) -> list[tuple[int, Path]]:
    """``(filename epoch, path)`` of every ``jit-map.NNNNN`` file in
    ``map_dir``, in epoch order: the one listing of a map directory
    (quarantine subdirectories, arenas and stray files are not maps)."""
    found = []
    for path in sorted(Path(map_dir).iterdir()):
        m = _FILE_RE.match(path.name)
        if m is not None and path.is_file():
            found.append((int(m.group(1)), path))
    return found


def parse_map(
    path: Path, blob: bytes | None = None
) -> tuple[int | None, list[CodeMapRecord], list[tuple[str, str]]]:
    """Parse one map file tolerantly (``blob``: its bytes, when already
    read) — the one map parser, behind both :meth:`CodeMap.load` and the
    static analyzer's session loader.

    Returns ``(epoch, records, problems)``: the header's epoch, every
    record line that parsed, and a ``(location, message)`` pair per
    problem, both in file order.  Bytes that are not UTF-8 text, an empty
    file or a bad header leave no epoch (None) and no records.  Past the
    header, parsing goes on through every problem: a ``jit-map.NNNNN``
    filename whose epoch disagrees with the header's, and each malformed
    record line.  I/O errors propagate.
    """
    if blob is None:
        blob = path.read_bytes()
    try:
        lines = blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        return None, [], [("-", f"unreadable map file: not UTF-8 text: {e}")]
    if not lines:
        return None, [], [("line 1", "empty map file")]
    m = _HEADER_RE.match(lines[0])
    if m is None:
        return None, [], [("line 1", f"bad header {lines[0]!r}")]
    epoch = int(m.group(1))
    problems: list[tuple[str, str]] = []
    named = _FILE_RE.match(path.name)
    if named is not None and int(named.group(1)) != epoch:
        problems.append((
            "line 1",
            f"filename epoch {int(named.group(1))} != header epoch {epoch}",
        ))
    records: list[CodeMapRecord] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        try:
            records.append(CodeMapRecord.from_line(ln))
        except CodeMapError as e:
            problems.append((f"line {lineno}", str(e)))
    return epoch, records, problems


def read_map_files(map_dir: Path | str) -> Iterator[tuple[CodeMap, bytes]]:
    """Parse every ``jit-map.NNNNN`` file of ``map_dir`` in epoch order,
    yielding each map with the bytes it was parsed from (so the arena
    digests exactly what it packs).  The one text-map loader."""
    for _, path in map_files(map_dir):
        blob = path.read_bytes()
        yield CodeMap.load(path, blob), blob


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

    ``quarantined`` marks epochs whose maps existed but were damaged and
    set aside by salvage (``viprof recover``).  A quarantined epoch is a
    **barrier**: the walk cannot see what the lost map recorded, and the
    copying collector recycles addresses across epochs, so continuing
    past it could silently attribute a PC to an *older* occupant of the
    address.  The walk therefore returns :data:`RESOLVE_BLOCKED` instead
    — the degraded pipeline counts those samples as unresolved, keeping
    every resolution it *does* make a subset of the undamaged run's
    (property-tested in ``tests/viprof/test_epoch_walk_properties.py``).
    Clamping and bottoming use loaded *and* quarantined epochs, so a lost
    newest map cannot make later samples silently consult older maps.  An
    epoch absent from both ``maps`` and ``quarantined`` is skipped.
    """

    def __init__(
        self,
        maps: dict[int, PackedCodeMap],
        quarantined: Iterable[int] = (),
    ):
        self._maps = maps
        self.quarantined = frozenset(quarantined)
        overlap = self.quarantined & set(maps)
        if overlap:
            raise CodeMapError(
                f"epochs {sorted(overlap)} both loaded and quarantined"
            )
        known = maps.keys() | self.quarantined
        self._span = (min(known), max(known)) if known else None

    @classmethod
    def load_dir(
        cls,
        map_dir: Path | str,
        quarantined: Iterable[int] = (),
    ) -> "CodeMapIndex":
        """Load a session's maps: zero-copy arena tables when the
        compiled arena (:mod:`repro.viprof.arena`) is valid and its
        source digests still match the map files, else the text maps
        (:func:`read_map_files`).  Never writes anything.

        Quarantined sessions always take the text parse: salvage deletes
        the arena, and the lost epochs are not in the map files.
        """
        map_dir = Path(map_dir)
        quarantined = tuple(quarantined)
        if not quarantined:
            from repro.viprof import arena

            try:
                return cls(arena.CodeMapArena.open_fresh(map_dir).maps())
            except arena.ArenaError:
                pass
        maps = {cm.epoch: cm for cm, _ in read_map_files(map_dir)}
        return cls(maps, quarantined=quarantined)

    @property
    def epochs(self) -> tuple[int, ...]:
        return tuple(sorted(self._maps))

    def map_for(self, epoch: int) -> PackedCodeMap | None:
        return self._maps.get(epoch)

    def resolve(
        self, epoch: int, addr: int, backward: bool = True
    ) -> tuple[CodeMapRecord, int] | _Blocked | None:
        """:meth:`resolve_run` for a single address."""
        return self.resolve_run(epoch, (addr,), backward)[0]

    def resolve_keys(
        self, keys: Iterable[tuple[int, int]]
    ) -> dict[tuple[int, int], tuple[CodeMapRecord, int] | _Blocked | None]:
        """Resolve ``(epoch, pc)`` keys: one :meth:`resolve_run` per epoch
        over its distinct PCs in ascending order, so each distinct key is
        walked exactly once.  Maps every key to its result."""
        pcs: dict[int, set[int]] = {}
        for epoch, pc in keys:
            pcs.setdefault(epoch, set()).add(pc)
        hits = {}
        for epoch, run in pcs.items():
            run = sorted(run)
            hits.update(zip(
                [(epoch, pc) for pc in run], self.resolve_run(epoch, run)
            ))
        return hits

    def resolve_run(
        self, epoch: int, addrs: Iterable[int], backward: bool = True
    ) -> list[tuple[CodeMapRecord, int] | _Blocked | None]:
        """Resolve an **ascending** run of addresses sampled during
        ``epoch`` (the columnar resolver's bucket shape).

        Searches the sample's epoch first (clamped to the newest known
        epoch; -1 means the newest), then walks strictly backwards,
        probing each map once for the addresses still pending.  Returns,
        per address, ``(record, epoch_found)``, or None when no map ever
        held it (e.g. the method was compiled after the last map write
        and the final flush is missing), or :data:`RESOLVE_BLOCKED` when
        the walk reached a quarantined epoch first: the damaged map could
        have held the address, so any hit below the barrier might be a
        stale occupant.

        ``backward=False`` is the ablation: consult only the sample's own
        epoch map, which loses every sample whose method was compiled or
        moved in an earlier epoch.
        """
        addrs = list(addrs)
        results: list[tuple[CodeMapRecord, int] | _Blocked | None] = (
            [None] * len(addrs)
        )
        if self._span is None:
            return results
        low, high = self._span
        top = min(epoch, high) if epoch >= 0 else high
        pending = list(range(len(addrs)))
        for e in range(top, (low if backward else top) - 1, -1):
            if not pending:
                break
            if e in self.quarantined:
                for i in pending:
                    results[i] = RESOLVE_BLOCKED
                break
            cm = self._maps.get(e)
            if cm is None:
                continue
            found = cm.lookup_run([addrs[i] for i in pending])
            still: list[int] = []
            for i, rec in zip(pending, found):
                if rec is None:
                    still.append(i)
                else:
                    results[i] = (rec, e)
            pending = still
        return results

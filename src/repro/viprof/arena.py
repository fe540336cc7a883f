"""Compiled binary code-map arena: zero-copy, mmap-shared epoch maps.

``CodeMapIndex.load_dir`` re-parses every text map into per-record
``CodeMapRecord`` objects on every run, and forked shard workers
copy-on-write the whole object graph.  The arena compiles a session's
epoch maps **once** (``viprof index``, or automatically at session
teardown) into a single packed file that readers open with ``mmap``
read-only and bisect in place:

* a tiny binary prelude (magic, version, header length);
* a deterministic JSON header: epoch directory, tier table, per-source
  digests (the staleness contract), and the body checksum;
* the body: per epoch, five parallel little-endian ``i64`` columns —
  ``start``, ``end``, ``flags`` (bit 0 = moved, upper bits = tier-table
  index), ``name_off``, ``name_len`` — sorted exactly like
  ``CodeMap.records``, followed by one deduplicated UTF-8 name blob.

Readers bisect the columns through :class:`~repro.os.intervals.
PackedIntervalTable` (``memoryview`` casts over the mapping — no Python
objects per row) and materialize a ``CodeMapRecord`` lazily, only for
rows that actually reach a report.  Because the mapping is read-only and
page-cache backed, every forked worker shares the same physical pages:
pickling an :class:`ArenaCodeMap` ships only ``(path, epoch)``.

Safety contract (the part the fault harness exercises): the arena is a
pure **derived cache**.  Every open validates magic/version/checksum and
every source map's size+sha256 digest; any mismatch — torn write, stale
source, hand-edited map — raises :class:`ArenaError` and callers fall
back to parsing the text maps.  A wrong report is impossible; the worst
failure mode is the old speed.  Consistency between a checked-in arena
and its sources is additionally linted by statcheck rule VP111.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from pathlib import Path

from repro.errors import ArenaError
from repro.faults import injector as faults
from repro.os.intervals import PackedIntervalTable
from repro.viprof.codemap import (
    CodeMap,
    CodeMapRecord,
    PackedCodeMap,
    map_files,
    read_map_files,
)

__all__ = [
    "ArenaError",
    "ArenaCodeMap",
    "CodeMapArena",
    "arena_path_for",
    "build_arena",
    "source_digests",
]

MAGIC = b"VPCA"
VERSION = 1
#: ``magic, version, reserved, header_len`` — 12 bytes.
_PRELUDE = struct.Struct("<4sHHI")
#: Bytes per packed column cell.
_CELL = 8
#: Columns per epoch table: start, end, flags, name_off, name_len.
_COLUMNS = 5
#: Arena file name, next to the map directory it compiles.
ARENA_SUFFIX = ".arena"

_FLAG_MOVED = 1


def arena_path_for(map_dir: Path | str) -> Path:
    """Where ``map_dir``'s compiled arena lives: a sibling file, so the
    map directory holds only what :func:`~repro.viprof.codemap.map_files`
    lists (``<session>/jit-maps`` -> ``<session>/jit-maps.arena``)."""
    map_dir = Path(map_dir)
    return map_dir.parent / (map_dir.name + ARENA_SUFFIX)


def source_digests(map_dir: Path) -> list[list]:
    """``[name, size, sha256]`` per map file, sorted by name — the
    freshness contract stored in the header and re-checked on open."""
    out: list[list] = []
    for _, path in map_files(map_dir):
        blob = path.read_bytes()
        out.append([path.name, len(blob), hashlib.sha256(blob).hexdigest()])
    return out


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


def build_arena(
    map_dir: Path | str, out_path: Path | None = None
) -> Path | None:
    """Compile ``map_dir``'s epoch maps into one packed arena file.

    Returns the arena path, or None when the directory holds no map
    files (nothing to compile — an existing arena, if any, is removed so
    it cannot go stale).  Raises :class:`~repro.errors.CodeMapError` if
    a source map is malformed or internally overlapping: the arena only
    ever encodes maps the strict text loader would accept, which is what
    makes the packed single-probe bisect sound.

    The write is atomic (temp file + ``os.replace``) and instrumented
    with the ``arena.write`` fault point: a crash there leaves a torn
    byte prefix at the final path, which every subsequent open rejects
    by checksum.
    """
    map_dir = Path(map_dir)
    if out_path is None:
        out_path = arena_path_for(map_dir)

    maps: list[CodeMap] = []
    sources: list[list] = []
    if map_dir.is_dir():
        for cm, blob in read_map_files(map_dir):
            maps.append(cm)
            sources.append(
                [cm.source.name, len(blob), hashlib.sha256(blob).hexdigest()]
            )
    if not maps:
        out_path.unlink(missing_ok=True)
        return None

    tiers: list[str] = []
    tier_ids: dict[str, int] = {}
    names = bytearray()
    name_refs: dict[str, tuple[int, int]] = {}
    body = bytearray()
    epochs_dir: list[list[int]] = []
    total = 0
    for cm in maps:
        records = cm.records
        table_off = len(body)
        cols = [[] for _ in range(_COLUMNS)]
        for rec in records:
            tid = tier_ids.get(rec.tier)
            if tid is None:
                tid = tier_ids[rec.tier] = len(tiers)
                tiers.append(rec.tier)
            ref = name_refs.get(rec.name)
            if ref is None:
                encoded = rec.name.encode("utf-8")
                ref = name_refs[rec.name] = (len(names), len(encoded))
                names.extend(encoded)
            cols[0].append(rec.address)
            cols[1].append(rec.end)
            cols[2].append((tid << 1) | (_FLAG_MOVED if rec.moved else 0))
            cols[3].append(ref[0])
            cols[4].append(ref[1])
        for col in cols:
            body.extend(struct.pack(f"<{len(col)}q", *col))
        epochs_dir.append([cm.epoch, len(records), table_off])
        total += len(records)
    names_off = len(body)
    body.extend(names)

    header = {
        "version": VERSION,
        "records": total,
        "epochs": epochs_dir,
        "tiers": tiers,
        "names_off": names_off,
        "names_len": len(names),
        "body_len": len(body),
        "body_sha256": hashlib.sha256(body).hexdigest(),
        "sources": sources,
    }
    header_blob = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    payload = (
        _PRELUDE.pack(MAGIC, VERSION, 0, len(header_blob))
        + header_blob
        + body
    )

    if faults.armed():
        faults.fire(
            faults.ARENA_WRITE,
            effect=lambda rng: _torn_write(out_path, payload, rng),
        )
    tmp = out_path.with_name(out_path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, out_path)
    return out_path


def _torn_write(path: Path, payload: bytes, rng) -> None:
    """Fault effect (``arena.write``): the crash lands mid-write of the
    *final* file, leaving a byte prefix.  Any cut is detectable — a cut
    in the prelude/header fails to parse, a cut in the body fails the
    length or sha256 check — so unlike the text maps no cut position
    needs special care."""
    cut = rng.randrange(1, len(payload))
    path.write_bytes(payload[:cut])


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------


class CodeMapArena:
    """A validated, mmap-backed arena file.

    Opening validates everything once — prelude, header JSON, body
    length, body sha256 — so every later bisect can trust the columns.
    Source *freshness* is a separate concern (the maps can change under
    a perfectly intact arena): :meth:`stale_reasons` re-digests the map
    directory against the recorded contract, and
    :meth:`CodeMapArena.open_fresh` folds both checks into one call.
    """

    def __init__(
        self,
        path: Path,
        header: dict,
        view: memoryview,
        mapping: mmap.mmap,
    ) -> None:
        self.path = path
        self.header = header
        self._view = view
        self._mmap = mapping
        self._epoch_dir = {
            int(e): (int(n), int(off)) for e, n, off in header["epochs"]
        }
        names_off = int(header["names_off"])
        self._names = view[names_off : names_off + int(header["names_len"])]
        self._tiers = list(header["tiers"])
        self._maps: dict[int, ArenaCodeMap] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def open(cls, path: Path | str) -> "CodeMapArena":
        path = Path(path)
        if sys.byteorder != "little":
            # The columns are little-endian on disk and read through a
            # native-order memoryview cast; on a big-endian host the
            # text loader is the correct (and only) path.
            raise ArenaError(
                f"{path}: arena reader requires a little-endian host"
            )
        try:
            fh = open(path, "rb")
        except OSError as e:
            raise ArenaError(f"{path}: cannot open arena: {e}") from None
        try:
            try:
                mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError) as e:
                raise ArenaError(f"{path}: cannot mmap arena: {e}") from None
        finally:
            # The mapping keeps its own reference to the file.
            fh.close()
        view = memoryview(mapped)
        if len(view) < _PRELUDE.size:
            raise ArenaError(f"{path}: truncated arena prelude")
        magic, version, _, header_len = _PRELUDE.unpack_from(view, 0)
        if magic != MAGIC:
            raise ArenaError(f"{path}: bad arena magic {magic!r}")
        if version != VERSION:
            raise ArenaError(
                f"{path}: unsupported arena version {version} "
                f"(reader speaks {VERSION})"
            )
        body_off = _PRELUDE.size + header_len
        if len(view) < body_off:
            raise ArenaError(f"{path}: truncated arena header")
        try:
            header = json.loads(bytes(view[_PRELUDE.size : body_off]))
        except (ValueError, UnicodeDecodeError):
            raise ArenaError(f"{path}: corrupt arena header") from None
        body = view[body_off:]
        if len(body) != int(header.get("body_len", -1)):
            raise ArenaError(
                f"{path}: arena body is {len(body)} bytes, header "
                f"promises {header.get('body_len')}"
            )
        digest = hashlib.sha256(body).hexdigest()
        if digest != header.get("body_sha256"):
            raise ArenaError(f"{path}: arena body checksum mismatch")
        return cls(path, header, body, mapped)

    @classmethod
    def open_fresh(cls, map_dir: Path | str) -> "CodeMapArena":
        """Open ``map_dir``'s arena, requiring it to exist, validate,
        *and* match the current source maps byte-for-byte."""
        map_dir = Path(map_dir)
        arena = cls.open(arena_path_for(map_dir))
        reasons = arena.stale_reasons(map_dir)
        if not reasons:
            return arena
        arena.close()
        raise ArenaError(
            f"{arena.path}: stale arena: {'; '.join(reasons)}"
        )

    def __enter__(self) -> "CodeMapArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the mapping.  For probe-style callers (``viprof index
        --check``, statcheck VP111) that validate and move on; resolver-
        facing arenas live in :data:`_PROCESS_ARENAS` for the process
        lifetime and never call this."""
        self._maps.clear()
        self._names.release()
        self._view.release()
        try:
            self._mmap.close()
        except BufferError:
            # A column view escaped (caller still holds an ArenaCodeMap);
            # the mapping is freed when the last view is collected.
            pass

    # -- validation -----------------------------------------------------

    def stale_reasons(self, map_dir: Path | str) -> list[str]:
        """Why this arena no longer matches ``map_dir`` (empty = fresh).

        The contract is per-file ``(name, size, sha256)`` equality over
        the map-file set — the same digests :func:`build_arena` recorded.
        """
        map_dir = Path(map_dir)
        current = (
            source_digests(map_dir) if map_dir.is_dir() else []
        )
        recorded = [list(s) for s in self.header.get("sources", [])]
        if current == recorded:
            return []
        cur = {name: (size, sha) for name, size, sha in current}
        rec = {name: (size, sha) for name, size, sha in recorded}
        reasons = []
        for name in sorted(rec.keys() - cur.keys()):
            reasons.append(f"source map {name} was removed")
        for name in sorted(cur.keys() - rec.keys()):
            reasons.append(f"source map {name} is not in the arena")
        for name in sorted(rec.keys() & cur.keys()):
            if rec[name] != cur[name]:
                reasons.append(f"source map {name} changed on disk")
        return reasons

    # -- access ---------------------------------------------------------

    @property
    def epochs(self) -> tuple[int, ...]:
        return tuple(sorted(self._epoch_dir))

    @property
    def records(self) -> int:
        return int(self.header["records"])

    @property
    def sources(self) -> tuple[tuple[str, int, str], ...]:
        return tuple(
            (name, int(size), sha)
            for name, size, sha in self.header.get("sources", [])
        )

    def epoch_map(self, epoch: int) -> "ArenaCodeMap":
        cm = self._maps.get(epoch)
        if cm is None:
            count, table_off = self._epoch_dir[epoch]
            cm = ArenaCodeMap(self, epoch, count, table_off)
            self._maps[epoch] = cm
        return cm

    def maps(self) -> dict[int, "ArenaCodeMap"]:
        """Every epoch's lazy map view, keyed like ``load_dir``'s dict."""
        return {e: self.epoch_map(e) for e in self._epoch_dir}

    def info(self) -> dict:
        """Inspection payload for ``viprof index --json`` and VP111."""
        return {
            "path": str(self.path),
            "version": int(self.header["version"]),
            "bytes": self.path.stat().st_size,
            "records": self.records,
            "epochs": list(self.epochs),
            "sources": [list(s) for s in self.sources],
        }

    def _column(self, table_off: int, count: int, col: int) -> memoryview:
        start = table_off + col * count * _CELL
        return self._view[start : start + count * _CELL].cast("q")


#: Per-process cache of opened arenas, keyed by absolute path.  Unpickled
#: :class:`ArenaCodeMap` handles in a shard worker re-attach here, so one
#: worker maps each arena file exactly once no matter how many epochs it
#: resolves.
_PROCESS_ARENAS: dict[str, CodeMapArena] = {}


def _shared_arena(path: str) -> CodeMapArena:
    arena = _PROCESS_ARENAS.get(path)
    if arena is None:
        arena = CodeMapArena.open(path)
        _PROCESS_ARENAS[path] = arena
    return arena


def _reopen_epoch(path: str, epoch: int) -> "ArenaCodeMap":
    """Unpickle hook: re-attach to the process-wide mapping."""
    return _shared_arena(path).epoch_map(epoch)


class ArenaCodeMap(PackedCodeMap):
    """One epoch's packed table, looked up exactly like a text-parsed
    :class:`~repro.viprof.codemap.CodeMap` but with its rows left in the
    mapping.

    Lookups bisect the raw ``i64`` columns; a :class:`CodeMapRecord` is
    only built (then memoized) for rows a lookup actually returns, so a
    million-row map whose hot set is fifty methods materializes fifty
    objects.  Pickles as ``(arena path, epoch)`` — a forked or spawned
    worker re-maps the same file and shares its page cache.

    A map holds only views into the arena's mapping (columns, names) and
    the tier list, never the :class:`CodeMapArena` itself, so dropping an
    index frees its arena by reference counting alone.
    """

    __slots__ = (
        "epoch",
        "source",
        "_names",
        "_tiers",
        "_table",
        "_flags",
        "_name_off",
        "_name_len",
        "_rows",
    )

    def __init__(
        self, arena: CodeMapArena, epoch: int, count: int, table_off: int
    ) -> None:
        self.epoch = epoch
        self.source = arena.path
        self._names = arena._names
        self._tiers = arena._tiers
        self._table = PackedIntervalTable(
            arena._column(table_off, count, 0),
            arena._column(table_off, count, 1),
        )
        self._flags = arena._column(table_off, count, 2)
        self._name_off = arena._column(table_off, count, 3)
        self._name_len = arena._column(table_off, count, 4)
        self._rows: dict[int, CodeMapRecord] = {}

    def __reduce__(self):
        return (_reopen_epoch, (str(self.source), self.epoch))

    def _row(self, i: int) -> CodeMapRecord:
        rec = self._rows.get(i)
        if rec is None:
            starts = self._table._starts
            ends = self._table._ends
            flags = self._flags[i]
            off = self._name_off[i]
            rec = CodeMapRecord(
                address=starts[i],
                size=ends[i] - starts[i],
                tier=self._tiers[flags >> 1],
                name=str(self._names[off : off + self._name_len[i]], "utf-8"),
                moved=bool(flags & _FLAG_MOVED),
            )
            self._rows[i] = rec
        return rec

"""Sharded, multi-process sample resolution.

:func:`run_pipeline(..., workers=N) <repro.pipeline.aggregate.run_pipeline>`
partitions a directory-backed source's records into ``N`` contiguous
shards — whole files where possible, large files split by record-chunk
ranges (:func:`plan_shards`) — and resolves each shard in its own worker
process with its own copy of the :class:`~repro.pipeline.resolver.ResolverChain`.

Exactness is the design constraint, not best-effort parallelism:

* shards are **contiguous in global stream order** (files in sorted name
  order, record ranges in file order), and each worker's aggregate comes
  back as the pool's result and is folded in shard order by the
  order-preserving :meth:`~repro.profiling.report.StreamingAggregator.merge`,
  so row/event first-seen order — the report's sort tie-break — matches
  the sequential pass exactly;
* workers reset their chain copy's counters and export pure **deltas**,
  which the parent chain absorbs
  (:meth:`~repro.pipeline.resolver.ResolverChain.absorb_stats`); counters
  are pure sums, so merged statistics equal sequential statistics;
* therefore ``workers=N`` output is byte-identical to ``workers=1``
  (golden-parity tested for N in {2, 4}).

The per-shard resolve loop is also the pipeline's sequential path
(:func:`consume_source`): records are decoded as numpy record arrays,
one per decode chunk, and each chunk is grouped by key with one sort of
a packed u64 key.  Its distinct keys and counts are merged, in numpy,
into one key table per chunk range, which becomes a ``{key: count}``
dict and is resolved once, a distinct key at a time, when the range
ends (or early, at :data:`MAX_TABLE_KEYS` keys) — no Python object is
built per sample, and the key tuples are built once per table.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import multiprocessing

import numpy as np

from repro.errors import ProfilerError
from repro.pipeline.resolver import ResolverChain
from repro.pipeline.source import DirectorySource
from repro.profiling.record_codec import RecordFileReader
from repro.profiling.report import StreamingAggregator

__all__ = [
    "ShardChunk",
    "plan_shards",
    "resolve_workers",
    "consume_source",
    "consume_chunks",
    "run_parallel_pipeline",
]

#: Shard split points within a file are rounded to this many records, so
#: a range that ends inside a file is a whole number of these granules
#: and no shard takes a sliver of a file (each range pays for opening the
#: file, a key table and a ``resolve_groups`` call).  It is a split
#: granule only: the reader's decode chunk is larger, and correctness
#: depends on neither.
SPLIT_ALIGN_RECORDS = 4096

#: A chunk range's key table is resolved early once it holds this many
#: distinct keys (checked after each decode chunk, so a table can reach
#: this plus a decode chunk less one), so a range with a huge key
#: population resolves in bounded memory; each flushed table walks its
#: own keys.
MAX_TABLE_KEYS = 1 << 16

#: The record fields that make a sample's resolution key, in
#: :func:`~repro.pipeline.source.sample_key` order; a codec without
#: ``domain_id`` uses the first four.
_KEY_FIELDS = ("pc", "epoch", "kernel_mode", "task_id", "domain_id")


#: ``workers="auto"`` never picks more than this many shards: resolution
#: is CPU-bound, so workers beyond the core count only add fork + merge
#: overhead, and very wide boxes hit diminishing returns on session I/O.
MAX_AUTO_WORKERS = 8


def resolve_workers(workers: int | str) -> int:
    """Resolve a worker-count knob to a concrete count.

    ``"auto"`` picks ``min(cpu_count, MAX_AUTO_WORKERS)`` — and degrades
    to 1 on a single-core box, where extra processes can only lose (fork,
    transport, and merge overhead with zero added parallelism).  Integer
    counts of at least 1 pass through unchanged.
    """
    if workers == "auto":
        cores = os.cpu_count() or 1
        return 1 if cores < 2 else min(cores, MAX_AUTO_WORKERS)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ProfilerError(
            f'worker count must be an int or "auto", got {workers!r}'
        )
    if workers < 1:
        raise ProfilerError(f"worker count must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True, slots=True)
class ShardChunk:
    """A contiguous record range of one sample file.

    ``path`` is a string (not :class:`~pathlib.Path`) so chunk lists
    pickle cheaply across the worker boundary.
    """

    path: str
    start_record: int
    n_records: int


def plan_shards(
    paths: Sequence[Path | str], workers: int
) -> list[list[ShardChunk]]:
    """Partition files' records into ``workers`` contiguous shards.

    Files are taken in the given (sorted) order; each shard receives a
    contiguous run of the global record stream, so concatenating the
    shards in index order reproduces the sequential stream exactly.
    Large files are split at :data:`SPLIT_ALIGN_RECORDS`-aligned record
    boundaries.  Shards that would be empty (more workers than records)
    are dropped.
    """
    if workers < 1:
        raise ProfilerError(f"worker count must be >= 1, got {workers}")
    counts: list[tuple[str, int]] = []
    total = 0
    for p in paths:
        with RecordFileReader(p) as reader:
            n = len(reader)
        counts.append((str(p), n))
        total += n
    if total == 0:
        return []
    per_shard = -(-total // workers)  # ceil
    shards: list[list[ShardChunk]] = [[]]
    room = per_shard
    for path, n in counts:
        taken = 0
        while taken < n:
            if room == 0:
                shards.append([])
                room = per_shard
            take = min(n - taken, room)
            remaining_after = n - taken - take
            if 0 < remaining_after and take % SPLIT_ALIGN_RECORDS:
                # Keep every intra-file split on a granule boundary: round
                # the take down to one, or — when the shard's budget is
                # smaller than a granule — up to a whole granule
                # (alignment wins over perfectly even shard sizes).
                aligned = take - (take % SPLIT_ALIGN_RECORDS)
                take = (
                    aligned
                    if aligned > 0
                    else min(n - taken, SPLIT_ALIGN_RECORDS)
                )
            shards[-1].append(ShardChunk(path, taken, take))
            taken += take
            room = max(0, room - take)
    return [s for s in shards if s]


# ----------------------------------------------------------------------
# the resolve loop (sequential path == per-shard worker loop)
# ----------------------------------------------------------------------


def consume_chunks(
    chunks: Iterable[ShardChunk],
    chain: ResolverChain,
    agg: StreamingAggregator,
    pid: int | None = None,
) -> None:
    """Resolve every record in the given chunk ranges into ``agg``.

    This is the pipeline's hot loop, and no Python runs per sample in
    it.  Each decode chunk of a range arrives as a numpy record array
    and collapses to its distinct keys in numpy (:func:`_group`).  Those
    keys and their counts merge, by the same grouping, into the range's
    key table: one numpy column per key field plus a count column, in
    first-seen order, kept across the range's decode chunks.  When the
    range ends, or once the table holds :data:`MAX_TABLE_KEYS` distinct
    keys (checked after each decode chunk), :func:`_resolve_table` turns
    it into one ``{key: count}`` dict, resolves that with one
    :meth:`~repro.pipeline.resolver.ResolverChain.resolve_groups` call,
    and the aggregate takes one ``add_counts(..., n)`` per key, in
    first-seen order.  Flushes follow stream order, so row insertion
    order (the report's sort tie-break) is the stream's.  The key layout
    matches :func:`~repro.pipeline.source.sample_key`; ``kernel_mode``
    is the record's int byte here (``1 == True`` hashes identically, so
    the keys unify).

    ``pid`` keeps only that task's records and the kernel-mode ones
    (``opreport``'s image separation), as a mask over each decode chunk
    before it is grouped.
    """
    for chunk in chunks:
        with RecordFileReader(chunk.path) as reader:
            event_name = reader.event_name
            fields = _KEY_FIELDS[: 5 if reader.codec.has_domain else 4]
            table = None
            for records in reader.iter_field_chunks(
                chunk.start_record, chunk.n_records
            ):
                if pid is not None:
                    records = records[
                        (records["task_id"] == pid)
                        | (records["kernel_mode"] != 0)
                    ]
                    if not len(records):
                        continue
                table = _count_chunk(table, [records[f] for f in fields])
                if len(table[1]) >= MAX_TABLE_KEYS:
                    _resolve_table(_table_dict(table), event_name, chain, agg)
                    table = None
            if table is not None:
                _resolve_table(_table_dict(table), event_name, chain, agg)


#: A range's key table: one numpy column per key field, one row per
#: distinct key in first-seen order, and the keys' counts.
_KeyTable = tuple[list[np.ndarray], np.ndarray]


def _count_chunk(
    table: _KeyTable | None, keys: list[np.ndarray]
) -> _KeyTable:
    """Merge one non-empty decode chunk's key columns into ``table``
    (``None`` for a new one), by the same grouping as the chunk's own."""
    keys = [np.ascontiguousarray(key) for key in keys]
    firsts, runs = _group(keys)
    heads = [key[firsts] for key in keys]
    if table is None:
        return heads, runs
    columns, counts = table
    # Table rows first: a key's first row is where it was first seen.
    rows = [np.concatenate(pair) for pair in zip(columns, heads)]
    firsts, counts = _group(rows, np.concatenate((counts, runs)))
    return [row[firsts] for row in rows], counts


def _group(
    columns: list[np.ndarray], weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by their key ``columns``: each distinct key's first
    row index, in row order, and its count (its number of rows, or the
    sum of their ``weights``).

    One stable sort lines equal keys up in runs (:func:`_sort_keys`), so
    a run's head is its key's first row, and sorting the heads puts the
    keys back in first-seen order.
    """
    order, ranked = _sort_keys(columns)
    same = np.ones(len(order) - 1, dtype=bool)
    for column in ranked:
        same &= column[1:] == column[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    firsts = order[starts]
    if weights is None:
        counts = np.diff(starts, append=len(order))
    else:
        counts = np.add.reduceat(weights[order], starts)
    seen = np.argsort(firsts)
    return firsts[seen], counts[seen]


def _sort_keys(
    columns: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A stable order of the rows that puts equal keys next to each
    other, and the sorted keys as columns whose adjacent rows are equal
    exactly where the keys are.

    When the columns' spans (``max - min``) and the row index fit in 64
    bits together, each ``column - min`` is packed into one u64, most
    significant first, with the row index in the low bits, and one
    ``np.sort`` of it gives both: the packing is injective and keeps
    ``np.lexsort``'s order, and the row index makes every value
    distinct, so the sort is stable.  The key is built in place from the
    row index up, through one scratch column, and the sorted key is
    split back into the scratch (the row order) and itself (the key), so
    a decode chunk costs two u64 buffers.  Otherwise the columns are
    lexsorted.
    """
    n = len(columns[0])
    lows = [int(column.min()) for column in columns]
    bits = [
        (int(column.max()) - low).bit_length()
        for column, low in zip(columns, lows)
    ]
    index_bits = (n - 1).bit_length()
    if sum(bits) + index_bits > 64:
        order = np.lexsort(columns[::-1])
        return order, [column[order] for column in columns]
    packed = np.arange(n, dtype=np.uint64)
    scratch = np.empty(n, dtype=np.uint64)
    shift = index_bits
    for column, low, width in zip(columns[::-1], lows[::-1], bits[::-1]):
        if width:
            # Mod 2**64 arithmetic: exact for a signed column too.
            np.copyto(scratch, column, casting="unsafe")
            scratch -= np.uint64(low % (1 << 64))
            scratch <<= np.uint64(shift)
            packed |= scratch
            shift += width
    packed.sort()
    np.bitwise_and(packed, np.uint64((1 << index_bits) - 1), out=scratch)
    packed >>= np.uint64(index_bits)
    return scratch, [packed]


def _table_dict(table: _KeyTable) -> dict[tuple, int]:
    """A key table as the ``{key: count}`` dict ``resolve_groups`` takes,
    built once per table: one ``tolist()`` per key column, and ``None``
    for the domain of a codec that has none."""
    columns, counts = table
    lists: list = [column.tolist() for column in columns]
    if len(lists) < len(_KEY_FIELDS):
        lists.append(repeat(None))
    return dict(zip(zip(*lists), counts.tolist()))


def _resolve_table(
    groups: dict[tuple, int],
    event_name: str,
    chain: ResolverChain,
    agg: StreamingAggregator,
) -> None:
    """Resolve one key table and fold each key's count into ``agg``."""
    entries = chain.resolve_groups(groups)
    add_counts = agg.add_counts
    for key, count in groups.items():
        entry = entries[key]
        add_counts(event_name, entry.image, entry.symbol, count)


def consume_source(
    source: Iterable[object],
    chain: ResolverChain,
    agg: StreamingAggregator,
    pid: int | None = None,
) -> None:
    """Resolve a whole source into ``agg``: directory-backed sources
    through the decode-chunk loop, anything else through
    :meth:`~repro.pipeline.resolver.ResolverChain.resolve_stream`.
    ``pid`` filters as in :func:`consume_chunks`; only a
    directory-backed source takes it."""
    if isinstance(source, DirectorySource):
        whole_files = [
            ShardChunk(str(p), 0, _record_count(p)) for p in source.paths()
        ]
        consume_chunks(whole_files, chain, agg, pid)
        return
    if pid is not None:
        raise ProfilerError(
            "a pid filter needs a directory-backed source "
            f"(got {type(source).__name__})"
        )
    for resolved in chain.resolve_stream(source):
        agg.add(resolved)


def _record_count(path: Path | str) -> int:
    with RecordFileReader(path) as reader:
        return len(reader)


# ----------------------------------------------------------------------
# the multi-process runner
# ----------------------------------------------------------------------


def _resolve_shard_worker(
    payload: tuple[bytes, list[ShardChunk], tuple[str, ...] | None],
    pid: int | None = None,
) -> tuple[dict[str, object], StreamingAggregator]:
    """Worker entry: resolve one shard on a private chain copy and return
    the chain's counter deltas
    (:meth:`~repro.pipeline.resolver.ResolverChain.export_stats`) and the
    shard's aggregate, for the parent to fold in shard order."""
    chain_bytes, chunks, events = payload
    chain: ResolverChain = pickle.loads(chain_bytes)
    chain.reset_stats()
    agg = StreamingAggregator(events)
    consume_chunks(chunks, chain, agg, pid)
    return chain.export_stats(), agg


def run_parallel_pipeline(
    source: Iterable[object],
    chain: ResolverChain,
    events: tuple[str, ...] | None,
    workers: int,
    pid: int | None = None,
) -> StreamingAggregator:
    """Resolve a directory-backed source across ``workers`` processes.

    Returns the merged aggregator; the parent ``chain`` has absorbed every
    worker's counter deltas, so ``chain.stats_dict()`` reports the whole
    run.  ``pid`` reaches every worker and filters as in
    :func:`consume_chunks`.  Falls back to the sequential loop when the
    plan yields a single shard (tiny inputs) — same results either way.
    """
    if not isinstance(source, DirectorySource):
        raise ProfilerError(
            "parallel resolution needs a directory-backed source "
            f"(got {type(source).__name__}); in-memory streams resolve "
            "sequentially"
        )
    try:
        chain_bytes = pickle.dumps(chain)
    except Exception as e:
        raise ProfilerError(
            f"resolver chain is not picklable for worker processes: {e}"
        ) from e
    shards = plan_shards(source.paths(), workers)
    agg = StreamingAggregator(events)
    if not shards:
        return agg
    if len(shards) == 1:
        consume_chunks(shards[0], chain, agg, pid)
        return agg
    # fork shares the parent's loaded modules and page cache; spawn works
    # too (workers re-import repro) but pays interpreter start-up.
    method = (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )
    ctx = multiprocessing.get_context(method)
    payloads = [(chain_bytes, shard, events) for shard in shards]
    with ProcessPoolExecutor(
        max_workers=len(shards), mp_context=ctx
    ) as pool:
        results = list(pool.map(_resolve_shard_worker, payloads, repeat(pid)))
    # Merge in shard order: shards are contiguous in stream order, so
    # order-preserving merges reproduce the sequential first-seen order.
    for stats, part in results:
        chain.absorb_stats(stats)
        agg.merge(part)
    return agg

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
(:func:`consume_source`): records are decoded in batched field chunks
(one ``iter_unpack`` C call per chunk), grouped by resolution key, and
resolved a key at a time — no sample objects are built for the stream.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import multiprocessing

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

#: Shard split points within a file are rounded to this many records so a
#: split never lands mid decode chunk (pure I/O efficiency; correctness
#: does not depend on it).
SPLIT_ALIGN_RECORDS = 4096

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
                # Keep every intra-file split on a decode-chunk boundary:
                # round the take down to one, or — when the shard's budget
                # is smaller than a chunk — up to a whole chunk (alignment
                # wins over perfectly even shard sizes).
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
) -> None:
    """Resolve every record in the given chunk ranges into ``agg``.

    This is the pipeline's hot loop.  Each decode chunk's raw field
    tuples ``(pc, task_id, kernel_mode, cycle, epoch[, domain_id])`` are
    folded into a first-seen-order ``{key: count}`` dict — one dict op
    per sample, nothing else on the per-sample path — and resolved by
    :meth:`~repro.pipeline.resolver.ResolverChain.resolve_groups`; the
    aggregate then takes one ``add_counts(..., n)`` per key, in
    first-seen order, so row insertion order (the report's sort
    tie-break) is the stream's.  The key layout matches
    :func:`~repro.pipeline.source.sample_key`; ``kernel_mode`` may be an
    int here (``1 == True`` hashes identically, so the keys unify).
    """
    for chunk in chunks:
        with RecordFileReader(chunk.path) as reader:
            event_name = reader.event_name
            has_domain = reader.codec.has_domain
            add_counts = agg.add_counts
            for fields_chunk in reader.iter_field_chunks(
                chunk.start_record, chunk.n_records
            ):
                groups: dict[tuple, int] = {}
                get = groups.get
                if has_domain:
                    for f in fields_chunk:
                        key = (f[0], f[4], f[2], f[1], f[5])
                        groups[key] = get(key, 0) + 1
                else:
                    for f in fields_chunk:
                        key = (f[0], f[4], f[2], f[1], None)
                        groups[key] = get(key, 0) + 1
                entries = chain.resolve_groups(groups)
                for key, count in groups.items():
                    entry = entries[key]
                    add_counts(event_name, entry.image, entry.symbol, count)


def consume_source(
    source: Iterable[object],
    chain: ResolverChain,
    agg: StreamingAggregator,
) -> None:
    """Resolve a whole source into ``agg``: directory-backed sources
    through the decode-chunk loop, anything else through
    :meth:`~repro.pipeline.resolver.ResolverChain.resolve_stream`."""
    if isinstance(source, DirectorySource):
        whole_files = [
            ShardChunk(str(p), 0, _record_count(p)) for p in source.paths()
        ]
        consume_chunks(whole_files, chain, agg)
        return
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
) -> tuple[dict[str, object], StreamingAggregator]:
    """Worker entry: resolve one shard on a private chain copy and return
    the chain's counter deltas
    (:meth:`~repro.pipeline.resolver.ResolverChain.export_stats`) and the
    shard's aggregate, for the parent to fold in shard order."""
    chain_bytes, chunks, events = payload
    chain: ResolverChain = pickle.loads(chain_bytes)
    chain.reset_stats()
    agg = StreamingAggregator(events)
    consume_chunks(chunks, chain, agg)
    return chain.export_stats(), agg


def run_parallel_pipeline(
    source: Iterable[object],
    chain: ResolverChain,
    events: tuple[str, ...] | None,
    workers: int,
) -> StreamingAggregator:
    """Resolve a directory-backed source across ``workers`` processes.

    Returns the merged aggregator; the parent ``chain`` has absorbed every
    worker's counter deltas, so ``chain.stats_dict()`` reports the whole
    run.  Falls back to the sequential loop when the plan yields a
    single shard (tiny inputs) — same results either way.  Workers start
    with empty memos (a pickled memo ships no entries).
    """
    if not isinstance(source, DirectorySource):
        raise ProfilerError(
            "parallel resolution needs a directory-backed source "
            f"(got {type(source).__name__}); filtered or in-memory streams "
            "resolve sequentially"
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
        consume_chunks(shards[0], chain, agg)
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
        results = list(pool.map(_resolve_shard_worker, payloads))
    # Merge in shard order: shards are contiguous in stream order, so
    # order-preserving merges reproduce the sequential first-seen order.
    for stats, part in results:
        chain.absorb_stats(stats)
        agg.merge(part)
    return agg

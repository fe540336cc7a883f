"""Single-pass streaming aggregation: source → chain → report.

:func:`run_pipeline` is the whole pipeline in one call: it streams samples
out of a source, resolves each through the chain, and folds them into a
:class:`~repro.profiling.report.StreamingAggregator` — never holding more
in memory than one decode chunk, one ``{key: count}`` table (flushed at
:data:`~repro.pipeline.parallel.MAX_TABLE_KEYS` distinct keys) and the
aggregate's per-symbol rows.

``workers=N`` shards a directory-backed source across ``N`` worker
processes (:mod:`repro.pipeline.parallel`); the merged output is
byte-identical to the sequential pass, statistics included.
"""

from __future__ import annotations

from typing import Iterable

from repro.pipeline.resolver import ResolverChain
from repro.profiling.report import ProfileReport, StreamingAggregator

__all__ = ["run_pipeline"]


def run_pipeline(
    source: Iterable[object],
    chain: ResolverChain,
    events: tuple[str, ...] | None = None,
    workers: int | str = 1,
    pid: int | None = None,
) -> ProfileReport:
    """Resolve and aggregate a sample stream in one constant-memory pass.

    ``source`` may yield raw, domain-tagged, or pipeline samples (any
    shape :func:`~repro.pipeline.source.as_pipeline_sample` accepts);
    ``events`` fixes the report's column order and drops other events.
    ``workers > 1`` requires a :class:`~repro.pipeline.source.DirectorySource`
    (sharding needs record-addressable files); ``workers="auto"`` picks a
    count from the machine's core count (1 on a single-core box).
    ``pid`` keeps one task's samples and every kernel-mode sample; it
    too requires a directory-backed source.  After the run the chain's
    ``stats_dict()`` covers the whole stream either way.
    """
    from repro.pipeline.parallel import (
        consume_source,
        resolve_workers,
        run_parallel_pipeline,
    )

    workers = resolve_workers(workers)
    if workers > 1:
        agg = run_parallel_pipeline(source, chain, events, workers, pid)
    else:
        agg = StreamingAggregator(events)
        consume_source(source, chain, agg, pid)
    return agg.report()

"""Metric definitions and the arithmetic that turns op timings into them.

``BENCHMARK.json`` at the repository root is the single list of the
metrics every run reports: ``end_to_end`` with ``--trace 0`` and
``per_layer`` with ``--trace 1``.  Its end-to-end metrics are the ones
every workload defines and that stay steady on a shared host.
:data:`EXTRA_METRICS` are end-to-end too, printed and compared, but kept
out of the file: raw op seconds follow the host's speed drift, and the
rest exist only on some workloads (a throughput needs work of its kind,
a tail percentile needs twenty ops).  :data:`LAYER_SOURCES` says how
each per-layer metric is read off the trace.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BENCHMARK_JSON",
    "LAYER_SOURCES",
    "EXTRA_METRICS",
    "Metric",
    "benchmark_metrics",
    "end_to_end",
    "extra_metrics",
    "per_layer",
    "quartiles",
    "tail_percentile",
]

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Ops that must lie beyond a percentile for it to be reported.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None


def benchmark_metrics(section: str, path: Path = BENCHMARK_JSON) -> list[Metric]:
    """The ``end_to_end`` or ``per_layer`` list of ``BENCHMARK.json``."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [
        Metric(m["name"], m["unit"], m["better"], m.get("bound"))
        for m in doc[section]
    ]


#: End-to-end metrics outside ``BENCHMARK.json``.  Host-time ones get
#: the widest bound, deterministic ones (fixed by the seed) bound 0.
EXTRA_METRICS: tuple[Metric, ...] = (
    Metric("op_p50_s", "s", "lower", 0.25),
    Metric("op_tail_s", "s", "lower", 0.25),
    Metric("sim_mcycles_per_s", "Mcycles/s", "higher", 0.25),
    Metric("samples_per_s", "samples/s", "higher", 0.25),
    Metric("error_rate", "fraction", "lower", 0.0),
    Metric("viprof_overhead_pct", "%", "lower", 0.0),
    Metric("jit_resolved_pct", "%", "higher", 0.0),
    Metric("attribution_error_pct", "%", "lower", 0.0),
)

#: per-layer metric -> (how, trace name[, denominator trace name]).
#: ``self`` is the per-op self time, ``count`` the per-op count (both as
#: the median over traced ops), ``ratio`` a quotient of counts summed
#: over traced ops.  ``work.*`` counters come from the op's own output.
LAYER_SOURCES: dict[str, tuple[str, ...]] = {
    "system.self_s": ("self", "system.run"),
    "hardware.execute_s": ("self", "hardware.execute"),
    "hardware.quanta": ("count", "hardware.execute"),
    "hardware.nmis": ("count", "hardware.nmis"),
    "jvm.step_s": ("self", "jvm.step"),
    "jvm.steps": ("count", "jvm.step"),
    "jvm.gcs": ("count", "jvm.gcs"),
    "jvm.compiles": ("count", "jvm.compiles"),
    "os.sched_s": ("self", "os.sched"),
    "os.picks": ("count", "os.sched"),
    "oprofile.wakeup_s": ("self", "oprofile.wakeup"),
    "oprofile.wakeups": ("count", "oprofile.wakeup"),
    "oprofile.records": ("count", "oprofile.records"),
    "viprof.agent_s": ("self", "viprof.agent"),
    "viprof.agent_calls": ("count", "viprof.agent"),
    "viprof.stop_s": ("self", "viprof.stop"),
    "viprof.arena_build_s": ("self", "viprof.arena_build"),
    "profiling.write_s": ("self", "profiling.write"),
    "profiling.records_written": ("count", "profiling.records_written"),
    "viprof.map_load_s": ("self", "viprof.map_load"),
    "viprof.arena_hit_ratio": ("ratio", "viprof.arena_opens", "viprof.map_load"),
    "profiling.decode_s": ("self", "profiling.decode"),
    "pipeline.resolve_s": ("self", "pipeline.resolve"),
    "pipeline.samples": ("count", "work.samples"),
    "pipeline.walk_s": ("self", "pipeline.walk"),
    "pipeline.walks": ("count", "pipeline.walk"),
    "pipeline.cache_hit_ratio": ("ratio", "work.cache_hits", "work.cache_lookups"),
    "pipeline.jit_resolved_ratio": ("ratio", "work.jit_resolved", "work.jit_samples"),
    "pipeline.jit_backward_ratio": ("ratio", "work.jit_backward", "work.jit_samples"),
    "profiling.render_s": ("self", "profiling.render"),
    "pipeline.scalar_resolves": ("count", "pipeline.scalar_resolves"),
    "xen.fleet_resolve_s": ("self", "xen.fleet_resolve"),
    "xen.domain_resolve_s": ("self", "xen.domain_resolve"),
    "metrics.summary_s": ("self", "metrics.summary"),
    "metrics.summaries": ("count", "metrics.summary"),
    "op.self_s": ("self", "op"),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten values beyond it, as
    ``(percentile, nearest-rank value)``; None below twenty values."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            rank = max(1, math.ceil(p / 100.0 * n))
            return p, sorted(values)[rank - 1]
    return None


def end_to_end(setup_s: float, op_s: list[float], probe_s: list[float],
               peak_rss_kb: int) -> dict:
    """The ``BENCHMARK.json`` end-to-end metrics, as ``name -> value``.

    ``op_min_norm`` is the run's fastest op in units of its fastest host
    probe.  Interference from other tenants only ever adds time, and it
    comes in phases that slow the probe and the ops alike, so the two
    minima are the least disturbed readings of each and their quotient
    cancels the host's drift between runs."""
    return {
        "setup_s": setup_s,
        "op_min_norm": min(op_s) / min(probe_s),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def extra_metrics(
    op_s: list[float], work: dict[str, int], attempted: int, failed: int,
    paper: dict[str, float],
) -> dict:
    """:data:`EXTRA_METRICS` this workload defines.  ``work`` is one op's
    deterministic output counters (every op does the same work)."""
    p50 = statistics.median(op_s)
    out: dict[str, float] = {"op_p50_s": p50, "error_rate": failed / attempted}
    tail = tail_percentile(op_s)
    if tail is not None:
        out["op_tail_s"] = tail[1]
    if work.get("sim_cycles"):
        out["sim_mcycles_per_s"] = work["sim_cycles"] / 1e6 / p50
    if work.get("samples"):
        out["samples_per_s"] = work["samples"] / p50
    out.update(paper)
    return out


def per_layer(layers: dict[int, dict[str, list]]) -> dict[str, float]:
    """Every per-layer metric from the traced ops' ``name -> [count,
    self_s]`` tables (``work.*`` counters merged in as counts)."""
    ops = list(layers.values())
    out: dict[str, float] = {}
    for metric, (how, name, *den) in LAYER_SOURCES.items():
        if how == "ratio":
            num = sum(op.get(name, (0, 0.0))[0] for op in ops)
            total = sum(op.get(den[0], (0, 0.0))[0] for op in ops)
            out[metric] = num / total if total else 0.0
        else:
            field = 0 if how == "count" else 1
            out[metric] = statistics.median(
                op.get(name, (0, 0.0))[field] for op in ops
            )
    return out

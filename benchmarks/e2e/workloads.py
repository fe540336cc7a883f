"""The four workloads: set-up, one op, and the check of one op's output.

Each workload builds its inputs from the seed in :meth:`setup`, then
:meth:`op` is the timed unit of work and :meth:`inspect` (untimed) turns
its output into a digest, deterministic work counters and a list of
problems.  Ops call only the program's public defaults; none of them
sets an ablation knob (``columnar``, ``resolve_cache``, ``batch``,
``arena``), so removing those knobs needs no change here.

Why these four: ``sweep`` is nearly all simulator, ``profile`` is the
whole vertical path on a dense session, ``report-1m`` is post-processing
only with a hot resolution cache, and ``fleet-16`` is post-processing
through the Xen per-domain dispatch.  An optimisation of one layer has a
workload that exercises it and one that does not.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.accuracy import score_viprof_accuracy
from repro.metrics import fleet as metrics_fleet
from repro.profiling.record_codec import RecordFileReader, RecordFileWriter
from repro.system.api import viprof_profile
from repro.system.experiment import MEDIAN_PERIOD, run_overhead_matrix
from repro.viprof.arena import build_arena
from repro.viprof.codemap import CodeMap, CodeMapIndex, CodeMapRecord, CodeMapWriter
from repro.viprof.postprocess import ViprofReport
from repro.workloads import by_name
from repro.workloads.base import SIM_HZ, paper_suite
from repro.workloads.fleet import fleet_workloads
from repro.xen.fleet import run_fleet

__all__ = ["Outcome", "WORKLOADS"]

#: The profiled benchmark and sampling period of ``profile`` and of the
#: seed session ``report-1m`` replicates: dense enough (thousands of
#: samples over 34 GC epochs) that collection and resolution both work.
PROFILE_BENCH = "fop"
PROFILE_PERIOD = 5_000
REPORT_ROWS = 15

#: ``report-1m`` pads the epoch code maps with this many records in all
#: (~5k per epoch), at addresses above every sampled PC, so map loading
#: parses a long JIT-heavy session's worth of records without changing a
#: resolution.  The total is fixed rather than the per-epoch count, so
#: the seed's epoch count does not change the arena's size or memory.
PAD_RECORDS = 170_000
PAD_BASE = 0x9000_0000
PAD_STRIDE = 0x40

FLEET_GUESTS = 16
#: Ops per workload in ``--smoke`` mode.
SMOKE_OPS = 3


@dataclass
class Outcome:
    """What :meth:`inspect` learns from one op's output."""

    digest: str
    work: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _rows(report) -> list[tuple]:
    """Every report row with its exact per-event counts, in table order."""
    return [
        (row.image, row.symbol, tuple(row.count(e) for e in report.events))
        for row in report.sorted_rows()
    ]


def _counts(report) -> dict[tuple, dict[str, int]]:
    """``(image, symbol) -> {event: count}`` with zero counts left out."""
    return {
        (row.image, row.symbol): {
            e: row.count(e) for e in report.events if row.count(e)
        }
        for row in report.sorted_rows()
    }


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _tree_bytes(root: Path) -> list[tuple[str, str]]:
    """(relative path, content sha256) of every file under ``root``."""
    return [
        (str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    ]


def chain_work(stats: dict) -> dict[str, int]:
    """Sample, cache and JIT counters of one chain's ``stats_dict()``,
    inner per-domain chains included (their samples are counted by the
    outer chain, so only the top level adds ``samples``)."""
    work = {"samples": stats["total_samples"]}
    _add_inner(work, stats)
    return work


def _add_inner(work: dict[str, int], stats: dict) -> None:
    cache = stats.get("cache")
    if cache is not None:
        work["cache_hits"] = work.get("cache_hits", 0) + cache["hits"]
        work["cache_lookups"] = (
            work.get("cache_lookups", 0) + cache["hits"] + cache["misses"]
        )
    for stage in stats["stages"]:
        detail = stage.get("detail")
        if stage["stage"] == "jit-epoch":
            own = detail["resolved_in_own_epoch"]
            earlier = detail["resolved_in_earlier_epoch"]
            work["jit_samples"] = work.get("jit_samples", 0) + detail["jit_samples"]
            work["jit_resolved"] = work.get("jit_resolved", 0) + own + earlier
            work["jit_backward"] = work.get("jit_backward", 0) + earlier
        elif stage["stage"] == "domain-dispatch":
            for inner in detail.values():
                _add_inner(work, inner)


def _sum_work(items: list[dict[str, int]]) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items:
        for k, v in item.items():
            out[k] = out.get(k, 0) + v
    return out


def replicate_samples(src_dir: Path, dst_dir: Path, target: int) -> int:
    """Write every sample file of ``src_dir`` into ``dst_dir`` repeated
    ``ceil(target / seed samples)`` times; returns the replica count.
    Record order inside each replica is kept, so PC locality is too."""
    decoded = []
    total = 0
    for path in sorted(src_dir.glob("*.samples")):
        with RecordFileReader(path) as reader:
            records = [r.sample for r in reader]
            decoded.append(
                (path.name, reader.codec, reader.event_name, reader.period,
                 records)
            )
        total += len(records)
    replicas = -(-target // total)
    dst_dir.mkdir(parents=True, exist_ok=True)
    for name, codec, event, period, records in decoded:
        blob = codec.pack_many(records)
        with RecordFileWriter(dst_dir / name, codec, event, period) as w:
            for _ in range(replicas):
                w.write_packed(blob, len(records))
    return replicas


def pad_code_maps(src_dir: Path, dst_dir: Path, pad: int) -> None:
    """Copy every epoch map of ``src_dir`` plus ``pad`` records in all,
    spread evenly over the epochs far above every sampled PC, then
    compile the arena."""
    writer = CodeMapWriter(dst_dir)
    paths = sorted(src_dir.glob("jit-map.*"))
    base = PAD_BASE
    for i, path in enumerate(paths):
        cm = CodeMap.load(path)
        n = pad // len(paths) + (i < pad % len(paths))
        padding = [
            CodeMapRecord(
                address=base + j * PAD_STRIDE, size=PAD_STRIDE, tier="O0",
                name=f"pad.Epoch{cm.epoch}.m{j}",
            )
            for j in range(n)
        ]
        writer.write(cm.epoch, list(cm.records) + padding)
        base += n * PAD_STRIDE
    build_arena(dst_dir)


def amplify_fleet(session_dir: Path, target: int) -> int:
    """Repeat the root stream and every ``dom<N>`` partition by one common
    factor, so the partitions still split the root exactly, until the
    root holds at least ``target`` samples; returns the root count."""
    paths = sorted((session_dir / "samples").glob("*.samples"))
    paths += sorted(session_dir.glob("dom*/samples/*.samples"))
    decoded = []
    root = 0
    for path in paths:
        with RecordFileReader(path) as reader:
            records = list(reader)
            decoded.append(
                (path, reader.codec, reader.event_name, reader.period,
                 [r.sample for r in records],
                 [r.domain_id for r in records]
                 if reader.codec.has_domain else None)
            )
        if path.parent.parent == session_dir:
            root += len(records)
    replicas = -(-target // root)
    for path, codec, event, period, samples, domains in decoded:
        blob = codec.pack_many(samples, domains)
        with RecordFileWriter(path, codec, event, period) as w:
            for _ in range(replicas):
                w.write_packed(blob, len(samples))
    return root * replicas


class Sweep:
    """``viprof overhead``: the Figure 2/3 matrix, 45 engine runs."""

    name = "sweep"

    def __init__(self, smoke: bool) -> None:
        self.ops = SMOKE_OPS if smoke else 3
        self.time_scale = 0.02 if smoke else 0.25

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.suite = paper_suite()

    def op(self):
        matrix = run_overhead_matrix(
            self.suite, time_scale=self.time_scale, seed=self.seed
        )
        return matrix, matrix.format_figure2(), matrix.format_figure3()

    def inspect(self, out) -> Outcome:
        matrix, fig2, fig3 = out
        seconds = sum(c.profiled_seconds for c in matrix.cells)
        seconds += sum(matrix.base_seconds.values())
        return Outcome(
            digest=_digest(fig2, fig3, matrix.cells, matrix.base_seconds),
            work={"sim_cycles": round(seconds * SIM_HZ)},
        )

    def paper_metrics(self, out) -> dict[str, float]:
        matrix = out[0]
        slowdown = matrix.average_slowdown("viprof", MEDIAN_PERIOD)
        return {"viprof_overhead_pct": 100.0 * (slowdown - 1.0)}


class Profile:
    """One VIProf session, collected, written, read back and reported."""

    name = "profile"

    def __init__(self, smoke: bool) -> None:
        self.ops = SMOKE_OPS if smoke else 100

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.workload = by_name(PROFILE_BENCH)

    def op(self):
        run = viprof_profile(
            self.workload, period=PROFILE_PERIOD, time_scale=1.0, seed=self.seed
        )
        vr = run.viprof_report()
        return run, vr, vr.report.format_table(limit=REPORT_ROWS)

    def inspect(self, out) -> Outcome:
        run, vr, table = out
        outcome = Outcome(
            digest=_digest(table, _rows(vr.report), _tree_bytes(run.session_dir)),
            work={"sim_cycles": run.wall_cycles, **chain_work(vr.stage_stats)},
        )
        rate = vr.jit_stats.resolution_rate
        if rate != 1.0:
            outcome.problems.append(f"jit samples {100 * rate:.4f}% resolved")
        return outcome

    def paper_metrics(self, out) -> dict[str, float]:
        run, vr, _ = out
        score = score_viprof_accuracy(run)
        return {
            "jit_resolved_pct": 100.0 * vr.jit_stats.resolution_rate,
            "attribution_error_pct": 100.0 * score.max_share_error,
        }


class Report1M:
    """A cold report over a replicated ~1M-sample session."""

    name = "report-1m"

    def __init__(self, smoke: bool) -> None:
        self.ops = SMOKE_OPS if smoke else 12
        self.target = 50_000 if smoke else 1_000_000
        self.pad = PAD_RECORDS // 10 if smoke else PAD_RECORDS

    def setup(self, seed: int, scratch: Path) -> None:
        run = viprof_profile(
            by_name(PROFILE_BENCH), period=PROFILE_PERIOD, time_scale=1.0,
            seed=seed, session_dir=scratch / "seed",
        )
        seed_report = run.viprof_report()
        self.post = seed_report.post
        self.sample_dir = scratch / "big" / "samples"
        self.map_dir = scratch / "big" / "jit-maps"
        self.replicas = replicate_samples(
            run.sample_dir, self.sample_dir, self.target
        )
        pad_code_maps(run.viprof_session.map_dir, self.map_dir, self.pad)
        self.expected = [
            (image, symbol, tuple(n * self.replicas for n in counts))
            for image, symbol, counts in _rows(seed_report.report)
        ]

    def op(self):
        post = ViprofReport(
            kernel=self.post.kernel,
            sample_dir=self.sample_dir,
            codemaps=CodeMapIndex.load_dir(self.map_dir),
            rvm_map=self.post.rvm_map,
            registrations=self.post.registrations,
        )
        report = post.generate()
        return post, report, report.format_table(limit=REPORT_ROWS)

    def inspect(self, out) -> Outcome:
        post, report, table = out
        rows = _rows(report)
        outcome = Outcome(
            digest=_digest(table, rows),
            work=chain_work(post.chain.stats_dict()),
        )
        if sorted(rows) != sorted(self.expected):
            outcome.problems.append(
                f"rows differ from the seed rows x {self.replicas}"
            )
        return outcome

    def paper_metrics(self, out) -> dict[str, float]:
        return {}


class Fleet16:
    """``viprof xen --fleet 16 --per-domain`` after the run: per-domain
    reports and summaries, the rollup, the root report, the render."""

    name = "fleet-16"

    def __init__(self, smoke: bool) -> None:
        self.ops = SMOKE_OPS if smoke else 12
        self.target = 10_000 if smoke else 100_000

    def setup(self, seed: int, scratch: Path) -> None:
        self.fleet = run_fleet(
            fleet_workloads(FLEET_GUESTS, seed=seed), period=PROFILE_PERIOD,
            session_dir=scratch / "fleet", seed=seed,
        )
        self.root_samples = amplify_fleet(self.fleet.session_dir, self.target)

    def op(self):
        fs = self.fleet
        domains = {}
        summaries = {}
        for did in fs.domain_ids:
            report, chain = fs.domain_resolve(did)
            summaries[did] = metrics_fleet.domain_summary(
                did, report, stats=chain.stats_dict(),
                meta={"workload": fs.result.guests[did].domain.name},
            )
            domains[did] = (report, chain)
        rollup = metrics_fleet.fleet_rollup(summaries)
        report, chain = fs.resolve()
        return domains, rollup, report, chain, report.format_table(
            limit=REPORT_ROWS
        )

    def inspect(self, out) -> Outcome:
        domains, rollup, report, chain, table = out
        rollup_doc = json.dumps(rollup.to_dict(), sort_keys=True)
        outcome = Outcome(
            digest=_digest(table, _rows(report), rollup_doc),
            work=_sum_work(
                [chain_work(chain.stats_dict())]
                + [chain_work(c.stats_dict()) for _, c in domains.values()]
            ),
        )
        summed: dict[tuple, dict[str, int]] = {}
        for dom_report, _ in domains.values():
            for key, counts in _counts(dom_report).items():
                acc = summed.setdefault(key, {})
                for e, n in counts.items():
                    acc[e] = acc.get(e, 0) + n
        if _counts(report) != summed:
            outcome.problems.append("root rows != sum of per-domain rows")
        if sum(report.totals.values()) != self.root_samples:
            outcome.problems.append(
                f"root totals {sum(report.totals.values())} != "
                f"{self.root_samples} amplified samples"
            )
        return outcome

    def paper_metrics(self, out) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (Sweep, Profile, Report1M, Fleet16)}

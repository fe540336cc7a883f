#!/usr/bin/env python
"""Throughput benchmark for the sample-resolution pipeline.

Synthesizes a large session (default one million samples) by replicating
a real seeded VIProf run's sample records, then measures end-to-end
resolution throughput (samples/sec) and peak RSS for:

* ``workers=1`` — the sequential pass (the report-parity baseline);
* ``workers=2``/``4`` — sharded multi-process resolution over
  shared-memory result transport;
* ``workers="auto"`` — the core-count heuristic (1 on a single-core box);
* **cold start** (workers=1) with the code maps
  loaded *inside* the timed region, once from the text maps and once
  from the compiled arena (``repro.viprof.arena``) — the padded map set
  makes the parse-vs-mmap gap visible;
* **index load** — ``CodeMapIndex.load_dir`` alone, text vs arena,
  with the resident-memory delta of each load;
* **fleet scale-out** — a 16-guest multi-stack session amplified to the
  same order of magnitude, resolved once over the root stream
  (sequential layout) and once over the ``dom*/samples`` partition
  (sharded layout) at each worker count, reporting samples/sec for
  both.  Cross-layout parity is checked on canonical rows + totals
  (file visit order legitimately reorders tied table lines);
  within the sharded layout every worker count must reproduce the
  1-worker sharded report byte-for-byte.

Every configuration's report is checked byte-identical against the
sequential baseline before its numbers are recorded (a perf run that
changes output is a failed run, not a fast one).  Results land in ``BENCH_pipeline.json`` at the repo
root; ``docs/performance.md`` explains how to read them.

Usage::

    python benchmarks/bench_pipeline_perf.py            # 1M samples, 1/2/4
    python benchmarks/bench_pipeline_perf.py --smoke    # 100k, workers 1/2
"""

from __future__ import annotations

import argparse
import resource
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.metrics.bench import write_bench_payload  # noqa: E402
from repro.pipeline.parallel import resolve_workers  # noqa: E402
from repro.profiling.record_codec import (  # noqa: E402
    RecordFileReader,
    RecordFileWriter,
)
from repro.system.api import viprof_profile  # noqa: E402
from repro.viprof.arena import CodeMapArena, build_arena  # noqa: E402
from repro.viprof.codemap import (  # noqa: E402
    CodeMap,
    CodeMapIndex,
    CodeMapRecord,
    CodeMapWriter,
    read_map_files,
)
from repro.viprof.postprocess import ViprofReport  # noqa: E402
from repro.workloads import by_name  # noqa: E402

SEED_BENCH = "fop"
SEED_PERIOD = 90_000
SEED_SCALE = 0.25
SEED = 7

#: Fleet leg: guests multiplexed on one hypervisor, and the sampling
#: period of their shared buffer.  16 guests is the paper's scale-out
#: point; the short seed run is amplified (same replica trick as the
#: single-stack synthesis) so throughput is measured on six-figure
#: record counts, not the seed's hundreds.
FLEET_GUESTS = 16
FLEET_PERIOD = 5_000
FLEET_TARGET = 500_000
FLEET_TARGET_SMOKE = 100_000

#: Padding records appended per epoch to the synthesized map set.  Sized
#: so a text load parses a six-figure record count (a long JIT-heavy
#: session) while the padding sits far above every sampled PC, keeping
#: resolution byte-identical to the unpadded session.
PAD_RECORDS_PER_EPOCH = 20_000
PAD_RECORDS_SMOKE = 2_000
PAD_BASE = 0x9000_0000
PAD_STRIDE = 0x40


def synthesize_session(sample_dir: Path, big_dir: Path, target: int) -> int:
    """Replicate a seed session's sample files into ``big_dir`` until the
    directory holds ~``target`` records, preserving the per-event mix and
    the record order within each replica (PC locality and all).

    Each seed file is bulk-encoded once (``pack_many``) and the packed
    blob is appended per replica, so synthesis cost is dominated by I/O
    rather than a million struct packs."""
    big_dir.mkdir(parents=True, exist_ok=True)
    seed_files = sorted(sample_dir.glob("*.samples"))
    seed_total = 0
    decoded = []
    for path in seed_files:
        with RecordFileReader(path) as reader:
            records = [r.sample for r in reader]
            decoded.append(
                (path.name, reader.codec, reader.event_name,
                 reader.period, records)
            )
            seed_total += len(records)
    if seed_total == 0:
        raise SystemExit(f"seed session {sample_dir} has no samples")
    replicas = max(1, -(-target // seed_total))  # ceil
    written = 0
    for name, codec, event, period, records in decoded:
        blob = codec.pack_many(records)
        with RecordFileWriter(big_dir / name, codec, event, period) as w:
            for _ in range(replicas):
                w.write_packed(blob, len(records))
                written += len(records)
    return written


def synthesize_maps(
    seed_map_dir: Path, big_map_dir: Path, pad_per_epoch: int
) -> dict:
    """Clone the seed session's epoch maps with ``pad_per_epoch`` extra
    records per epoch at addresses far above every sampled PC.

    The padding inflates exactly the cost the arena removes — per-line
    text parsing and per-record object construction at load time —
    without changing a single resolution: no sample's PC falls inside
    the padded range, and the backward epoch-walk sees the same covering
    records it would in the unpadded session (parity-checked by the
    harness like every other config).
    """
    big_map_dir.mkdir(parents=True, exist_ok=True)
    writer = CodeMapWriter(big_map_dir)
    epochs = 0
    records = 0
    for path in sorted(seed_map_dir.glob("jit-map.*")):
        cm = CodeMap.load(path)
        pad_base = PAD_BASE + cm.epoch * pad_per_epoch * PAD_STRIDE
        padding = [
            CodeMapRecord(
                address=pad_base + i * PAD_STRIDE,
                size=PAD_STRIDE,
                tier="O0",
                name=f"pad.Epoch{cm.epoch}.m{i}",
            )
            for i in range(pad_per_epoch)
        ]
        writer.write(cm.epoch, list(cm.records) + padding)
        epochs += 1
        records += len(cm.records) + pad_per_epoch
    arena_path = build_arena(big_map_dir)
    return {
        "epochs": epochs,
        "records": records,
        "pad_per_epoch": pad_per_epoch,
        "arena_bytes": arena_path.stat().st_size if arena_path else 0,
    }


def amplify_fleet_session(session_dir: Path, target: int) -> int:
    """Replicate every sample file in a fleet session — the root stream
    *and* each ``dom<N>/samples`` shard — by one common factor until the
    root holds ~``target`` records.

    One factor everywhere keeps the fleet invariant intact: the
    per-domain files still exactly partition the root stream, so the
    sequential (root) and sharded (``dom*``) layouts keep resolving the
    same record multiset.  Returns the amplified root record count.
    """
    paths = sorted((session_dir / "samples").glob("*.samples"))
    paths += sorted(session_dir.glob("dom*/samples/*.samples"))
    decoded = []
    root_total = 0
    for path in paths:
        with RecordFileReader(path) as reader:
            records = list(reader)
            samples = [r.sample for r in records]
            dids = (
                [r.domain_id for r in records]
                if reader.codec.has_domain else None
            )
            decoded.append(
                (path, reader.codec, reader.event_name, reader.period,
                 samples, dids)
            )
            if path.parent.parent == session_dir:
                root_total += len(records)
    if root_total == 0:
        raise SystemExit(f"fleet session {session_dir} has no samples")
    replicas = max(1, -(-target // root_total))  # ceil
    for path, codec, event, period, samples, dids in decoded:
        blob = codec.pack_many(samples, dids)
        with RecordFileWriter(path, codec, event, period) as w:
            for _ in range(replicas):
                w.write_packed(blob, len(samples))
    return root_total * replicas


def _canonical_rows(report) -> list[tuple]:
    """Rows as a sorted multiset — file visit order feeds the
    aggregator's insertion order, which breaks ties in ``format_table``
    between the root and sharded layouts, so cross-layout parity is
    checked on canonical rows."""
    return sorted(
        (
            row.image,
            row.symbol,
            tuple((ev, row.count(ev)) for ev in sorted(report.events)),
        )
        for row in report.sorted_rows()
    )


def bench_fleet(worker_counts: list[int], target: int) -> dict:
    """The many-guest scale-out leg: one 16-guest fleet session,
    resolved over both layouts at each worker count."""
    from repro.workloads import fleet_workloads
    from repro.xen.fleet import run_fleet

    with tempfile.TemporaryDirectory(prefix="viprof-fleet-") as tmp:
        t0 = time.perf_counter()
        session = run_fleet(
            fleet_workloads(FLEET_GUESTS),
            period=FLEET_PERIOD,
            session_dir=Path(tmp) / "fleet",
            seed=SEED,
        )
        run_secs = time.perf_counter() - t0
        written = amplify_fleet_session(session.session_dir, target)
        print(f"fleet: {FLEET_GUESTS} guests, {written} samples "
              f"(run {run_secs:.2f}s)", flush=True)

        legs: list[dict] = []
        rows_ref = totals_ref = sharded_table = None
        for sharded in (False, True):
            for workers in ([1] if not sharded else worker_counts):
                t0 = time.perf_counter()
                report, chain = session.resolve(
                    workers=workers, sharded=sharded
                )
                elapsed = time.perf_counter() - t0
                total = chain.stats_dict()["total_samples"]
                if rows_ref is None:
                    rows_ref = _canonical_rows(report)
                    totals_ref = dict(report.totals)
                elif (
                    _canonical_rows(report) != rows_ref
                    or dict(report.totals) != totals_ref
                ):
                    raise SystemExit(
                        f"fleet workers={workers} sharded={sharded} "
                        "resolved different rows/totals than the "
                        "sequential root baseline — parity broken"
                    )
                if sharded:
                    table = report.format_table(limit=20)
                    if sharded_table is None:
                        sharded_table = table
                    elif table != sharded_table:
                        raise SystemExit(
                            f"fleet workers={workers} sharded report "
                            "diverged from the 1-worker sharded report "
                            "— parity broken"
                        )
                legs.append({
                    "layout": "sharded" if sharded else "sequential",
                    "workers": resolve_workers(workers),
                    "samples": total,
                    "seconds": round(elapsed, 4),
                    "samples_per_sec": (
                        round(total / elapsed) if elapsed else None
                    ),
                    "matches_baseline": True,
                })
                print(f"fleet layout="
                      f"{'sharded' if sharded else 'sequential'} "
                      f"workers={workers}: {elapsed:.2f}s  "
                      f"{legs[-1]['samples_per_sec']} samples/s",
                      flush=True)

    sequential = next(c for c in legs if c["layout"] == "sequential")
    best_sharded = min(
        (c for c in legs if c["layout"] == "sharded"),
        key=lambda c: c["seconds"],
    )
    return {
        "guests": FLEET_GUESTS,
        "period": FLEET_PERIOD,
        "samples": written,
        "run_seconds": round(run_secs, 4),
        "configs": legs,
        "sequential_samples_per_sec": sequential["samples_per_sec"],
        "sharded_samples_per_sec": best_sharded["samples_per_sec"],
        "speedup_sharded_vs_sequential": (
            round(sequential["seconds"] / best_sharded["seconds"], 2)
            if best_sharded["seconds"]
            else None
        ),
    }


def peak_rss_kb() -> int:
    """High-watermark RSS of this process plus all reaped children, in
    kB (Linux ``ru_maxrss`` units)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + kids


def current_rss_kb() -> int | None:
    """Resident set size right now, in kB (Linux ``/proc``; None
    elsewhere).  Unlike :func:`peak_rss_kb` this can go *down*, so
    before/after deltas isolate one load's footprint even after an
    earlier config pushed the high watermark up."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def load_index(map_dir: Path, mode: str) -> CodeMapIndex:
    """The index over the fresh arena (``"arena"``; raises without one)
    or over the parsed text maps (``"text"``)."""
    if mode == "arena":
        return CodeMapIndex(CodeMapArena.open_fresh(map_dir).maps())
    return CodeMapIndex({cm.epoch: cm for cm, _ in read_map_files(map_dir)})


def bench_index_load(map_dir: Path, repeats: int = 3) -> dict:
    """Time ``CodeMapIndex.load_dir`` text vs arena (best of
    ``repeats``), with each mode's resident-memory delta on first load."""
    import gc

    timings: dict[str, dict] = {}
    for mode in ("text", "arena"):
        gc.collect()
        rss_before = current_rss_kb()
        best = None
        loaded_records = 0
        for i in range(repeats):
            t0 = time.perf_counter()
            idx = load_index(map_dir, mode)
            elapsed = time.perf_counter() - t0
            if i == 0:
                # Record count on the text path; the arena path keeps
                # this lazy, which is the point — don't force it.
                loaded_records = sum(
                    len(idx.map_for(e)) for e in idx.epochs
                )
                rss_after = current_rss_kb()
            best = elapsed if best is None else min(best, elapsed)
            del idx
        timings[mode] = {
            "seconds": round(best, 4),
            "records": loaded_records,
            "rss_delta_kb": (
                rss_after - rss_before
                if rss_before is not None and rss_after is not None
                else None
            ),
        }
    text_s, arena_s = timings["text"]["seconds"], timings["arena"]["seconds"]
    return {
        "text": timings["text"],
        "arena": timings["arena"],
        "speedup": round(text_s / arena_s, 2) if arena_s else None,
    }


def bench_config(
    make_post,
    workers: int | str,
    baseline_table: str | None,
) -> tuple[dict, str]:
    resolved_workers = resolve_workers(workers)
    post = make_post()
    t0 = time.perf_counter()
    report = post.generate(workers=workers)
    elapsed = time.perf_counter() - t0
    stats = post.chain.stats_dict()
    total = stats["total_samples"]
    table = report.format_table(limit=20)
    result = {
        "workers": resolved_workers,
        "samples": total,
        "seconds": round(elapsed, 4),
        "samples_per_sec": round(total / elapsed) if elapsed else None,
        "peak_rss_kb": peak_rss_kb(),
        "cache": stats["cache"],
        "matches_baseline": (
            None if baseline_table is None else table == baseline_table
        ),
    }
    if workers == "auto":
        result["workers_requested"] = "auto"
    if baseline_table is not None and table != baseline_table:
        raise SystemExit(
            f"workers={workers} produced a different report than the sequential baseline — parity "
            "broken, not measuring"
        )
    return result, table


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=1_000_000,
                    help="synthetic session size (default 1M)")
    ap.add_argument("--workers", default=None,
                    help="comma-separated worker counts "
                         "(default 1,2,4; smoke default 1,2)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI mode: 100k samples, workers 1,2 unless "
                         "--workers is given explicitly")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_pipeline.json")
    args = ap.parse_args(argv)
    if args.smoke:
        args.samples = min(args.samples, 100_000)
    if args.workers is None:
        args.workers = "1,2" if args.smoke else "1,2,4"
    worker_counts = [int(w) for w in args.workers.split(",")]

    print(f"seeding: viprof run of {SEED_BENCH!r} "
          f"(period={SEED_PERIOD}, scale={SEED_SCALE})", flush=True)
    run = viprof_profile(
        by_name(SEED_BENCH), period=SEED_PERIOD,
        time_scale=SEED_SCALE, seed=SEED,
    )
    seed_post = run.viprof_report().post

    with tempfile.TemporaryDirectory(prefix="viprof-bench-") as tmp:
        big_dir = Path(tmp) / "samples"
        t0 = time.perf_counter()
        written = synthesize_session(run.sample_dir, big_dir, args.samples)
        synth_secs = time.perf_counter() - t0
        print(f"synthesized {written} samples in {big_dir} "
              f"({synth_secs:.2f}s)", flush=True)

        big_map_dir = Path(tmp) / "jit-maps"
        pad = PAD_RECORDS_SMOKE if args.smoke else PAD_RECORDS_PER_EPOCH
        map_info = synthesize_maps(
            run.viprof_session.map_dir, big_map_dir, pad
        )
        print(f"synthesized {map_info['records']} map records over "
              f"{map_info['epochs']} epochs "
              f"(arena {map_info['arena_bytes']} bytes)", flush=True)

        def make_post() -> ViprofReport:
            return ViprofReport(
                kernel=seed_post.kernel,
                sample_dir=big_dir,
                codemaps=seed_post.codemaps,
                rvm_map=seed_post.rvm_map,
                registrations=seed_post.registrations,
            )

        configs = []
        baseline_table = None
        # The sequential pass first (it doubles as the report-parity
        # baseline), then the sharded runs and the auto heuristic.
        plan: list[int | str] = [1]
        plan += [w for w in worker_counts if w > 1]
        plan.append("auto")
        for workers in plan:
            result, table = bench_config(make_post, workers, baseline_table)
            if baseline_table is None:
                baseline_table = table
            configs.append(result)
            rate = result["samples_per_sec"]
            print(f"workers={workers}: "
                  f"{result['seconds']:.2f}s  {rate} samples/s", flush=True)

        # -- cold start: map load inside the timed region --------------
        # Same single-core resolve, but the cost of
        # getting the code maps into memory is *included* — the scenario
        # `viprof index` exists for.  Arena first, so the text parse
        # cannot inflate the arena leg's shared page cache... it can
        # only help it, and the arena still has to win.
        import gc

        cold_start: dict[str, dict] = {}
        for mode in ("arena", "text"):
            gc.collect()
            rss0 = current_rss_kb()
            t0 = time.perf_counter()
            codemaps = load_index(big_map_dir, mode)
            load_secs = time.perf_counter() - t0
            post = ViprofReport(
                kernel=seed_post.kernel,
                sample_dir=big_dir,
                codemaps=codemaps,
                rvm_map=seed_post.rvm_map,
                registrations=seed_post.registrations,
            )
            report = post.generate(workers=1)
            elapsed = time.perf_counter() - t0
            rss1 = current_rss_kb()
            table = report.format_table(limit=20)
            if table != baseline_table:
                raise SystemExit(
                    f"cold-start ({mode}) produced a different report "
                    "than the sequential baseline — parity broken"
                )
            total = post.chain.stats_dict()["total_samples"]
            cold_start[mode] = {
                "map_load_seconds": round(load_secs, 4),
                "seconds": round(elapsed, 4),
                "samples_per_sec": round(total / elapsed) if elapsed else None,
                "rss_delta_kb": (
                    rss1 - rss0
                    if rss0 is not None and rss1 is not None
                    else None
                ),
                "matches_baseline": True,
            }
            print(f"cold-start {mode}: load {load_secs:.3f}s, "
                  f"total {elapsed:.2f}s "
                  f"({cold_start[mode]['samples_per_sec']} samples/s)",
                  flush=True)
        cold_start["speedup_arena_vs_text"] = (
            round(
                cold_start["text"]["seconds"]
                / cold_start["arena"]["seconds"], 2,
            )
            if cold_start["arena"]["seconds"]
            else None
        )

        # -- index load alone ------------------------------------------
        index_load = bench_index_load(big_map_dir)
        print(f"index load: text {index_load['text']['seconds']}s, "
              f"arena {index_load['arena']['seconds']}s "
              f"({index_load['speedup']}x)", flush=True)

        # -- fleet scale-out -------------------------------------------
        fleet = bench_fleet(
            worker_counts,
            FLEET_TARGET_SMOKE if args.smoke else FLEET_TARGET,
        )

        auto = next(c for c in configs if "workers_requested" in c)
        best = max(
            (c["samples_per_sec"] for c in configs), default=None
        )
        payload = {
            "benchmark": "pipeline_resolution_throughput",
            "seed_run": {
                "workload": SEED_BENCH, "period": SEED_PERIOD,
                "time_scale": SEED_SCALE, "seed": SEED,
            },
            "samples": written,
            "smoke": args.smoke,
            "synthesis": {
                "seconds": round(synth_secs, 4),
                "samples_per_sec": (
                    round(written / synth_secs) if synth_secs else None
                ),
                "write_path": "pack_many+write_packed",
            },
            "configs": configs,
            "maps": map_info,
            "fleet": fleet,
            "cold_start": cold_start,
            "index_load": index_load,
            # Arena headlines: cold-start resolution (map load included)
            # and the index load alone, arena vs text over the same
            # padded map set.
            "speedup_arena_cold_start": cold_start["speedup_arena_vs_text"],
            "speedup_arena_index_load": index_load["speedup"],
            "arena_cold_start_samples_per_sec": cold_start["arena"][
                "samples_per_sec"
            ],
            # Fleet headlines: the scale-out point (16 guests) over the
            # root stream vs the per-domain sharded partition.
            "fleet_sequential_samples_per_sec": fleet[
                "sequential_samples_per_sec"
            ],
            "fleet_sharded_samples_per_sec": fleet[
                "sharded_samples_per_sec"
            ],
            "workers_auto_resolved": auto["workers"],
            # The auto heuristic never picks a losing pool, so the best
            # rate is ≥ the 1-worker rate by construction (on single-core
            # boxes it *is* the 1-worker rate).
            "best_samples_per_sec": best,
        }

    # The shared writer stamps schema_version / cpu_count / python /
    # commit and embeds the bench summary for `viprof analyze`.
    write_bench_payload(args.out, payload)
    print(f"wrote {args.out}")
    print(f"arena speedup: cold start "
          f"{payload['speedup_arena_cold_start']}x, index load "
          f"{payload['speedup_arena_index_load']}x")
    print(f"fleet ({fleet['guests']} guests): sequential "
          f"{fleet['sequential_samples_per_sec']} samples/s, sharded "
          f"{fleet['sharded_samples_per_sec']} samples/s "
          f"({fleet['speedup_sharded_vs_sequential']}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

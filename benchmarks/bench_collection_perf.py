#!/usr/bin/env python
"""Throughput benchmark for the batched collection path.

Measures the three layers the batching rework touched — the writer and
the synthesizer against the historical per-record path they replaced,
checking **byte parity** before recording any number (a perf run that
changes output is a failed run, not a fast one) — and the daemon drain:

* **writer** — encoding+appending N distinct records per codec (core
  ``VPRS`` and domain-tagged ``XPRS``): per-record ``write`` with
  ``buffer_bytes=0`` (the exact pre-batching write pattern) vs chunked
  ``write_batch`` with the default 1 MiB high-water mark.  Output files
  are sha256-compared.
* **synthesis** — the benchmark-session synthesizer's job: replicating
  one decoded seed stream many times.  Per-record ``write`` loop vs
  ``pack_many`` once + ``write_packed`` per replica.  This is the
  headline number: encode cost is paid per distinct record run, not per
  written record.
* **daemon** — a full drain cycle over a synthetic machine (kernel /
  file-backed / anonymous / JIT-heap mix) through the chunked
  ``classify_chunk`` + ``write_batch`` drain.  Its parity with a
  sample-at-a-time drain (``DaemonWork`` totals and per-symbol order,
  ``DaemonStats``, sample-file bytes) is pinned by
  ``tests/oprofile/test_daemon.py``.

Results land in ``BENCH_collection.json`` at the repo root;
``docs/performance.md`` explains how to read them.

Usage::

    python benchmarks/bench_collection_perf.py           # 1M samples
    python benchmarks/bench_collection_perf.py --smoke   # 100k, CI
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import tempfile
import time
from pathlib import Path
from random import Random

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.metrics.bench import write_bench_payload  # noqa: E402
from repro.oprofile.kmodule import OprofileKernelModule  # noqa: E402
from repro.oprofile.opcontrol import EventSpec, OprofileConfig  # noqa: E402
from repro.os.binary import standard_libraries  # noqa: E402
from repro.os.kernel import Kernel  # noqa: E402
from repro.os.loader import ProgramLoader  # noqa: E402
from repro.profiling.model import RawSample  # noqa: E402
from repro.profiling.record_codec import (  # noqa: E402
    CORE_CODEC,
    DOMAIN_CODEC,
    RecordFileWriter,
)
from repro.viprof.runtime_profiler import ViprofRuntimeProfiler  # noqa: E402

EVENT = "GLOBAL_POWER_EVENTS"
PERIOD = 90_000
SEED = 7
BATCH_RECORDS = 4096


def peak_rss_kb() -> int:
    """High-watermark RSS in kB (Linux ``ru_maxrss`` units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth_samples(n: int, rng: Random) -> list[RawSample]:
    """N distinct records with a realistic field mix."""
    return [
        RawSample(
            pc=rng.randrange(0x1000, 0xFFFF_FFFF),
            event_name=EVENT,
            task_id=rng.randrange(1, 64),
            kernel_mode=rng.random() < 0.1,
            cycle=i * PERIOD,
            epoch=rng.randrange(-1, 8),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# writer: per-record append vs chunked write_batch
# ---------------------------------------------------------------------------

def bench_writer(tmp: Path, samples: list[RawSample], codec) -> dict:
    tag = codec.magic.decode()
    domains = (
        [s.task_id % 4 for s in samples] if codec.has_domain else None
    )
    base_path = tmp / f"writer-{tag}-per_record.samples"
    t0 = time.perf_counter()
    with RecordFileWriter(base_path, codec, EVENT, PERIOD, buffer_bytes=0) as w:
        if codec.has_domain:
            for s, d in zip(samples, domains):
                w.write(s, domain_id=d)
        else:
            for s in samples:
                w.write(s)
    base_secs = time.perf_counter() - t0

    batch_path = tmp / f"writer-{tag}-batched.samples"
    t0 = time.perf_counter()
    with RecordFileWriter(batch_path, codec, EVENT, PERIOD) as w:
        for i in range(0, len(samples), BATCH_RECORDS):
            chunk = samples[i : i + BATCH_RECORDS]
            w.write_batch(
                chunk,
                domains[i : i + BATCH_RECORDS] if codec.has_domain else None,
            )
    batch_secs = time.perf_counter() - t0

    parity = sha256(base_path) == sha256(batch_path)
    if not parity:
        raise SystemExit(
            f"writer[{tag}]: batched file differs from per-record file "
            "— parity broken, not measuring"
        )
    n = len(samples)
    return {
        "codec": tag,
        "samples": n,
        "per_record_seconds": round(base_secs, 4),
        "per_record_samples_per_sec": round(n / base_secs),
        "batched_seconds": round(batch_secs, 4),
        "batched_samples_per_sec": round(n / batch_secs),
        "speedup": round(base_secs / batch_secs, 2),
        "bytes_identical": parity,
    }


# ---------------------------------------------------------------------------
# synthesis: replicating one seed stream (the benchmark synthesizers' job)
# ---------------------------------------------------------------------------

def bench_synthesis(tmp: Path, total: int, rng: Random) -> dict:
    seed = synth_samples(min(10_000, total), rng)
    replicas = max(1, -(-total // len(seed)))  # ceil
    n = replicas * len(seed)

    base_path = tmp / "synth-per_record.samples"
    t0 = time.perf_counter()
    with RecordFileWriter(
        base_path, CORE_CODEC, EVENT, PERIOD, buffer_bytes=0
    ) as w:
        for _ in range(replicas):
            for s in seed:
                w.write(s)
    base_secs = time.perf_counter() - t0

    batch_path = tmp / "synth-batched.samples"
    t0 = time.perf_counter()
    blob = CORE_CODEC.pack_many(seed)
    with RecordFileWriter(batch_path, CORE_CODEC, EVENT, PERIOD) as w:
        for _ in range(replicas):
            w.write_packed(blob, len(seed))
    batch_secs = time.perf_counter() - t0

    parity = sha256(base_path) == sha256(batch_path)
    if not parity:
        raise SystemExit(
            "synthesis: batched file differs from per-record file "
            "— parity broken, not measuring"
        )
    return {
        "samples": n,
        "replicas": replicas,
        "per_record_seconds": round(base_secs, 4),
        "per_record_samples_per_sec": round(n / base_secs),
        "batched_seconds": round(batch_secs, 4),
        "batched_samples_per_sec": round(n / batch_secs),
        "speedup": round(base_secs / batch_secs, 2),
        "bytes_identical": parity,
    }


# ---------------------------------------------------------------------------
# daemon: chunked classify+write drain
# ---------------------------------------------------------------------------

def build_daemon(out_dir: Path, capacity: int):
    cfg = OprofileConfig(
        events=(EventSpec(EVENT, PERIOD),), buffer_capacity=capacity
    )
    kernel = Kernel()
    proc = kernel.spawn("java")
    loader = ProgramLoader(proc.address_space)
    libc_vma = loader.load_library(standard_libraries()[0])
    heap_vma = loader.map_anonymous(0x200000)
    km = OprofileKernelModule(cfg)
    daemon = ViprofRuntimeProfiler(kernel, km, cfg, out_dir)
    jit_lo = heap_vma.start + 0x80000
    daemon.register_vm(proc.pid, (jit_lo, heap_vma.start + 0x180000))
    return kernel, proc, libc_vma, heap_vma, jit_lo, km, daemon


def daemon_samples(
    n: int, rng: Random, kernel, proc, libc_vma, heap_vma, jit_lo
) -> list[RawSample]:
    """A capture-ordered mix: kernel / file-backed / anonymous / JIT-heap."""
    kpc = kernel.kernel_pc("schedule")
    out = []
    for i in range(n):
        r = rng.random()
        if r < 0.15:
            pc, kmode = kpc, True
        elif r < 0.55:
            pc, kmode = libc_vma.start + rng.randrange(0x4000), False
        elif r < 0.75:
            pc, kmode = heap_vma.start + rng.randrange(0x40000), False
        else:
            pc, kmode = jit_lo + rng.randrange(0x10000), False
        out.append(
            RawSample(
                pc=pc, event_name=EVENT, task_id=proc.pid,
                kernel_mode=kmode, cycle=i * PERIOD,
            )
        )
    return out


def bench_daemon(tmp: Path, n: int, rng: Random) -> dict:
    kernel, proc, libc_vma, heap_vma, jit_lo, km, daemon = build_daemon(
        tmp / "daemon", capacity=n + 1
    )
    samples = daemon_samples(
        n, rng, kernel, proc, libc_vma, heap_vma, jit_lo
    )
    km.buffer._samples = samples
    km.buffer.total_captured = n
    daemon.start()
    t0 = time.perf_counter()
    daemon.wakeup()
    secs = time.perf_counter() - t0
    daemon.stop()
    stats = daemon.stats
    return {
        "samples": n,
        "category_mix": {
            "kernel": stats.kernel_samples,
            "file": stats.file_samples,
            "anon": stats.anon_samples,
            "jit": stats.jit_samples,
        },
        "batched_seconds": round(secs, 4),
        "batched_samples_per_sec": round(n / secs),
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=1_000_000,
                    help="records per section (default 1M)")
    ap.add_argument("--smoke", action="store_true",
                    help="CI mode: 100k records")
    ap.add_argument("--out", type=Path,
                    default=REPO_ROOT / "BENCH_collection.json")
    args = ap.parse_args(argv)
    if args.smoke:
        args.samples = min(args.samples, 100_000)
    n = args.samples

    with tempfile.TemporaryDirectory(prefix="viprof-collect-") as tmp_s:
        tmp = Path(tmp_s)
        rng = Random(SEED)
        print(f"generating {n} synthetic records", flush=True)
        samples = synth_samples(n, rng)

        writers = []
        for codec in (CORE_CODEC, DOMAIN_CODEC):
            r = bench_writer(tmp, samples, codec)
            writers.append(r)
            print(f"writer[{r['codec']}]: {r['per_record_samples_per_sec']}"
                  f" -> {r['batched_samples_per_sec']} samples/s "
                  f"({r['speedup']}x)", flush=True)

        synthesis = bench_synthesis(tmp, n, rng)
        print(f"synthesis: {synthesis['per_record_samples_per_sec']}"
              f" -> {synthesis['batched_samples_per_sec']} samples/s "
              f"({synthesis['speedup']}x)", flush=True)

        daemon = bench_daemon(tmp, n, rng)
        print(f"daemon drain: {daemon['batched_samples_per_sec']} "
              "samples/s", flush=True)

    payload = {
        "benchmark": "collection_path_throughput",
        "samples": n,
        "smoke": args.smoke,
        "seed": SEED,
        "peak_rss_kb": peak_rss_kb(),
        "writers": writers,
        "synthesis": synthesis,
        "daemon": daemon,
        "headline_speedup_synthesis": synthesis["speedup"],
        "all_parity_checks_passed": True,  # SystemExit above otherwise
    }
    # The shared writer stamps schema_version / cpu_count / python /
    # commit and embeds the bench summary for `viprof analyze`.
    write_bench_payload(args.out, payload)
    print(f"wrote {args.out}")
    print(f"headline (synthesis) speedup: {synthesis['speedup']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process: set-up, warm-up, timed ops.

Started by :mod:`benchmarks.e2e` (never by hand) as::

    python -m benchmarks.e2e.runner --workload W --seed N --scratch DIR
        --spawned-at T [--seconds S] [--trace] [--smoke] [--setup-only]
        [--out DIR]

It prints exactly one JSON line on standard output; everything the
program itself prints goes to standard error.  ``setup_s`` runs from
``--spawned-at`` (the parent's clock when it started this process) to
the end of :meth:`setup`, so interpreter start and imports count.

The loop is a closed loop with one client: the next op starts when the
previous one has been checked.  Every op runs with ``tempfile.tempdir``
pointed at its own directory under ``--scratch``, removed after timing,
so sessions the program creates in the system temp dir are not leaked.
A full garbage collection runs before every op, outside the timing, so
one op's cyclic garbage neither inflates the next op's memory nor lands
in it as a collection pause: a ``report-1m`` op, for one, leaves its
~9 MB code-map arena mapping in a reference cycle.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .trace import Tracer, installed, silent_hooks

SRC = Path(__file__).resolve().parents[2] / "src"
#: Host-speed probes run before the warm-up op (one more runs before
#: every timed op).
PROBES_AT_START = 5


def host_probe(n: int = 100_000) -> float:
    """Seconds a fixed pure-Python loop takes (~25 ms): how fast this
    host runs interpreted code right now.  It is this benchmark's own
    code, so no change to the program moves it; dividing op times by it
    cancels the drift of a shared host's speed between runs."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    cells = [0] * 1024
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 1023
        table[k] = table.get(k, 0) + 1
        cells[k] += i
    return time.perf_counter() - t0


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    #: the op returned (its time counts even if its output is wrong)
    completed: bool
    ok: bool
    work: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digest: str | None = None
    paper: dict[str, float] = field(default_factory=dict)


def timed_op(workload, scratch: Path, ref_digest: str | None, tracer=None,
             index: int = 0, paper: bool = False) -> OpRecord:
    """Run one op in its own temp dir, check it, and with ``paper`` also
    score it with the paper's metrics while its files still exist.  An
    exception or a failed check marks the op failed instead of ending
    the run."""
    opdir = Path(tempfile.mkdtemp(prefix="op-", dir=scratch))
    tempfile.tempdir = str(opdir)
    digest = None
    seconds = 0.0
    completed = False
    problems: list[str] = []
    work: dict[str, int] = {}
    scores: dict[str, float] = {}
    try:
        gc.collect()
        if tracer is not None:
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            out = workload.op()
            completed = True
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
        outcome = workload.inspect(out)
        digest, work, problems = outcome.digest, outcome.work, outcome.problems
        if ref_digest is not None and digest != ref_digest:
            problems = [*problems, f"digest {digest[:16]} != {ref_digest[:16]}"]
        if paper:
            scores = workload.paper_metrics(out)
    except Exception:  # a failing op is counted, not fatal
        problems = [traceback.format_exc(limit=3)]
    finally:
        tempfile.tempdir = str(scratch)
        shutil.rmtree(opdir, ignore_errors=True)
    return OpRecord(seconds, tracer is not None, completed, not problems,
                    work, problems, digest, scores)


def run_ops(workload, scratch: Path, ref_digest: str, max_ops: int,
            seconds: float | None, tracer=None,
            probes: list[float] | None = None) -> list[OpRecord]:
    """Timed ops until ``max_ops`` ran or ``seconds`` elapsed, with a
    :func:`host_probe` appended to ``probes`` before each op and after
    the last.  With a tracer, ops alternate traced and untraced (traced
    first), so both halves see the same conditions and the tracing
    overhead is paired."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while len(records) < max_ops:
        if seconds is not None and records and (
            time.perf_counter() - start >= seconds
        ):
            break
        if probes is not None:
            probes.append(host_probe())
        traced = tracer is not None and len(records) % 2 == 0
        if traced:
            with installed(tracer):
                rec = timed_op(
                    workload, scratch, ref_digest, tracer, len(records)
                )
            for name, n in rec.work.items():
                tracer.layers[len(records)][f"work.{name}"] = [n, 0.0]
        else:
            rec = timed_op(workload, scratch, ref_digest)
        records.append(rec)
    if probes is not None:
        probes.append(host_probe())
    return records


def peak_rss_kb() -> int:
    """High-water RSS of this process plus its reaped children, in kB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.e2e.runner")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    result_stream, sys.stdout = sys.stdout, sys.stderr
    sys.path.insert(0, str(SRC))
    tempfile.tempdir = str(args.scratch)

    from .workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.smoke)
    workload.setup(args.seed, args.scratch)
    result: dict = {"setup_s": time.time() - args.spawned_at}
    if not args.setup_only:
        result.update(measure(workload, args))
    print(json.dumps(result), file=result_stream, flush=True)
    return 0


def measure(workload, args) -> dict:
    probes = [host_probe() for _ in range(PROBES_AT_START)]
    warm = timed_op(workload, args.scratch, None, paper=True)
    if warm.digest is None:
        raise SystemExit(f"warm-up op failed:\n{warm.problems[0]}")
    max_ops = workload.ops
    tracer = None
    if args.trace:
        tracer = Tracer()
        max_ops = 2 * max(3, workload.ops // 3)
    records = run_ops(
        workload, args.scratch, warm.digest, max_ops, args.seconds, tracer,
        probes,
    )
    problems = [f"warm-up: {p}" for p in warm.problems]
    problems += [p for r in records for p in r.problems]
    result = {
        "warmup_s": warm.seconds,
        "digest": warm.digest,
        "work": warm.work,
        "paper": warm.paper,
        "op_s": [r.seconds for r in records if r.completed and not r.traced],
        "probe_s": probes,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "problems": problems,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        traced_s = [r.seconds for r in records if r.completed and r.traced]
        result["traced_op_s"] = traced_s
        result["layers"] = {str(k): v for k, v in tracer.layers.items()}
        silent = silent_hooks(workload.name, tracer.layers)
        if silent:
            result["problems"].append(f"hooks never fired: {', '.join(silent)}")
        if result["op_s"] and traced_s:
            result["trace_overhead_pct"] = 100.0 * (
                statistics.median(traced_s) / statistics.median(result["op_s"])
                - 1.0
            )
        if args.out is not None:
            tracer.write(
                args.out / f"trace-{workload.name}-s{args.seed}.json",
                {"workload": workload.name, "seed": args.seed},
            )
    return result


if __name__ == "__main__":
    sys.exit(main())

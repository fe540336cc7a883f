"""End-to-end benchmark: workload simulation to rendered report.

Usage (from the repository root)::

    python -m benchmarks.e2e --seed 7 [--workload W] [--seconds S]
        [--trace [0|1]] [--smoke] [--out DIR]

Each workload runs in fresh processes, one after another, with one
client and one worker, so the load never exceeds one busy core.  Set-up
is done ``SETUP_RUNS`` times in fresh processes and ``setup_s`` is their
median; the last of those processes goes on to one discarded warm-up op
and then the timed ops, until the workload's op count is reached or
``--seconds`` have passed.  Every metric is printed as ``workload metric
value unit``, each run is written as JSON to ``--out`` (default: a new
directory under ``.e2e-work/``), and the last line of standard output is
the JSON result: the ``BENCHMARK.json`` end-to-end metrics, or with
``--trace`` its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .summary import (
    BENCHMARK_JSON,
    EXTRA_METRICS,
    benchmark_metrics,
    end_to_end,
    extra_metrics,
    per_layer,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = ROOT / ".e2e-work"
SETUP_RUNS = 5
#: Wall-clock budget for one workload, all of its processes included.
DEADLINE_S = 170.0


def spawn(name: str, args, out: Path, setup_only: bool, deadline: float) -> dict:
    """Run one runner process to completion and return its JSON result."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.runner",
        "--workload", name, "--seed", str(args.seed),
        "--scratch", str(scratch), "--out", str(out),
    ]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    cmd += [flag for flag, on in (
        ("--trace", args.trace), ("--smoke", args.smoke),
        ("--setup-only", setup_only),
    ) if on]
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(time.time())],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "TMPDIR": str(scratch)},
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: out of time after {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: runner exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, out: Path, deadline: float) -> dict:
    setups = []
    for i in range(SETUP_RUNS):
        result = spawn(name, args, out, i < SETUP_RUNS - 1, deadline)
        setups.append(result["setup_s"])
    result["setup_runs_s"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def metrics_of(result: dict, trace: bool) -> tuple[dict, dict, str]:
    """(JSON-result metrics, every metric, tail note) of one run, each
    metric as ``{"value": v, "unit": u}``."""
    if not trace and not result["op_s"]:
        raise SystemExit("every untraced op raised; nothing to measure")
    if trace:
        section = benchmark_metrics("per_layer")
        values = per_layer(result["layers"])
    else:
        section = benchmark_metrics("end_to_end")
        values = end_to_end(result["setup_s"], result["op_s"],
                            result["probe_s"], result["peak_rss_kb"])
    primary = {m.name: {"value": values[m.name], "unit": m.unit}
               for m in section}
    every = dict(primary)
    tail = ""
    if not trace:
        extra = extra_metrics(
            result["op_s"], result["work"], result["attempted"],
            result["failed"], result["paper"],
        )
        every.update({m.name: {"value": extra[m.name], "unit": m.unit}
                      for m in EXTRA_METRICS if m.name in extra})
        pct = tail_percentile(result["op_s"])
        if pct is not None:
            tail = f"p{pct[0]:g} of {len(result['op_s'])} ops"
    return primary, every, tail


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end VIProf benchmark (simulation to report).",
    )
    ap.add_argument("--workload", default=None,
                    help="run one workload (default: all, in order)")
    ap.add_argument("--seed", type=int, default=7,
                    help="seed of every engine, fleet and synthesis run")
    ap.add_argument("--seconds", type=float, default=None,
                    help="stop starting ops after this many seconds "
                         "(default: run each workload's op count)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="traced run: print the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and few ops, same metric names")
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for run and trace JSON "
                         "(default: a new directory under .e2e-work/)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in json.loads(BENCHMARK_JSON.read_text())["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    WORK_DIR.mkdir(exist_ok=True)
    out = args.out or Path(tempfile.mkdtemp(prefix="out-", dir=WORK_DIR))
    out.mkdir(parents=True, exist_ok=True)

    combined: dict = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
    for name in [args.workload] if args.workload else names:
        started = time.time()
        result = run_workload(name, args, out, time.monotonic() + DEADLINE_S)
        for problem in result["problems"]:
            print(f"{name}: FAILED: {problem}", file=sys.stderr)
        primary, every, tail = metrics_of(result, bool(args.trace))
        for metric, m in every.items():
            note = f"  ({tail})" if metric == "op_tail_s" else ""
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}{note}")
        if "trace_overhead_pct" in result:
            print(f"{name} trace_overhead_pct "
                  f"{result['trace_overhead_pct']:.3g} %")
        print(f"{name} ops {result['attempted']} count")
        print(f"{name} warmup_s {result['warmup_s']:.6g} s")
        print(f"{name} digest {result['digest']} sha256", flush=True)
        record = {"workload": name, "seed": args.seed, "trace": args.trace,
                  "smoke": args.smoke, "seconds": args.seconds,
                  "started": started, "metrics": every, **result}
        kind = "trace" if args.trace else "run"
        (out / f"{name}-s{args.seed}-{kind}-{time.time_ns()}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8"
        )
        combined["correct"] &= not result["problems"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if args.workload else f"{name}/"
        combined["metrics"].update(
            {f"{prefix}{k}": v for k, v in primary.items()}
        )
    print(f"results in {out}", file=sys.stderr)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

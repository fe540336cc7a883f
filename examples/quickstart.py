#!/usr/bin/env python3
"""Quickstart: profile one benchmark with VIProf and read the profile.

Runs DaCapo ``ps`` (the paper's Figure 1 case study) under the simulated
full system with VIProf attached, then prints:

1. the vertically integrated symbol profile (JIT methods, VM internals,
   native libraries, kernel — all in one listing);
2. how the JIT samples were resolved through the epoch code maps;
3. the same run's ground truth, so you can see the profile is *right*.

Usage::

    python examples/quickstart.py [--scale 0.25] [--period 90000]
"""

import argparse
import tempfile
from pathlib import Path

from repro import viprof_profile
from repro.workloads import by_name


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="ps", help="benchmark name")
    ap.add_argument("--scale", type=float, default=0.25,
                    help="fraction of the paper-scale run length")
    ap.add_argument("--period", type=int, default=90_000,
                    help="sampling period in cycles")
    args = ap.parse_args()

    workload = by_name(args.benchmark)
    print(f"Profiling {workload.name} "
          f"({workload.base_time_s:.1f}s nominal, scale {args.scale}) "
          f"with VIProf @ 1/{args.period} cycles ...\n")

    # The session (sample files and code maps) lives until the report
    # has been read.
    with tempfile.TemporaryDirectory(prefix="viprof-quickstart-") as tmp:
        result = viprof_profile(workload, period=args.period,
                                time_scale=args.scale, session_dir=Path(tmp))
        vr = result.viprof_report()

    print("=== VIProf profile (top 15) ===")
    print(vr.report.format_table(limit=15))

    stats = vr.jit_stats
    print(f"\nJIT sample resolution: {stats.jit_samples} samples, "
          f"{100 * stats.resolution_rate:.1f}% resolved "
          f"({stats.resolved_in_own_epoch} in their own epoch, "
          f"{stats.resolved_in_earlier_epoch} via backward traversal)")

    print(f"\nRun: {result.seconds:.2f}s simulated wall time, "
          f"{result.gc_stats.collections} GCs, "
          f"{result.vm_stats.compilations} compilations, "
          f"{result.agent_stats.maps_written} code maps written")

    print("\n=== Simulator ground truth (top 10, for comparison) ===")
    print(result.ledger.format_table(limit=10))


if __name__ == "__main__":
    main()

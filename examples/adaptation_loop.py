#!/usr/bin/env python3
"""The VIVA loop, end to end: observe -> detect -> re-optimize.

The paper builds VIProf as "a first step toward enabling dynamic
customization": profiles that are accurate enough, cheap enough, and
*vertically resolved* enough to drive optimization decisions while the
system runs.  This example closes that loop with the pieces in this
repository:

1. **Observe** — profile a phased workload with VIProf;
2. **Detect**  — build a timeline from the samples and find the phase
   transitions (possible only because JIT samples resolve to methods);
3. **Decide**  — extract each phase's hot-method set from its window;
4. **Act**     — rerun with a profile-guided adaptive system that
   compiles the union of per-phase hot sets at a high tier immediately,
   and measure the throughput gain.

Usage::

    python examples/adaptation_loop.py [--benchmark xalan] [--scale 0.4]
"""

import argparse
import tempfile
from pathlib import Path

from repro import viprof_profile
from repro.analysis.timeline import build_timeline
from repro.jvm.compiler import CompilerTier
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.pgo.guided import PgoAdaptiveSystem
from repro.system.api import base_run
from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine
from repro.workloads import by_name


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="xalan")
    ap.add_argument("--scale", type=float, default=0.4)
    args = ap.parse_args()

    # 1. Observe.
    print(f"[1/4] profiling {args.benchmark} with VIProf ...")
    with tempfile.TemporaryDirectory(prefix="viprof-adaptation-") as tmp:
        prof = viprof_profile(
            by_name(args.benchmark), period=45_000, time_scale=args.scale,
            noise=False, session_dir=Path(tmp),
        )
        post = prof.viprof_report().post
        resolved = [post.resolve(s) for s in post.read_samples()]

    # 2. Detect phases.
    window = max(1, prof.wall_cycles // 12)
    tl = build_timeline(resolved, window_cycles=window)
    transitions = tl.transitions(min_divergence=0.35)
    print(f"[2/4] {len(tl.windows)} windows, "
          f"phase transitions at {transitions or 'none'}")

    # 3. Per-phase hot sets (union across phases).
    hot: set[str] = set()
    for w in tl.windows:
        for (image, symbol), n in w.counts.items():
            if image == JIT_APP_IMAGE_LABEL and n / max(1, w.total) >= 0.05:
                hot.add(symbol)
    print(f"[3/4] union of per-phase hot sets: {len(hot)} methods")

    # 4. Act: guided rerun vs plain baseline, same work budget.
    baseline = base_run(
        by_name(args.benchmark), time_scale=args.scale, noise=False
    )
    cfg = EngineConfig(
        mode=ProfilerMode.NONE, time_scale=args.scale, noise=False,
        adaptive_factory=lambda: PgoAdaptiveSystem(
            hot_names=frozenset(hot), direct_tier=CompilerTier.OPT1
        ),
    )
    guided = SystemEngine(by_name(args.benchmark), cfg).run()

    gain = guided.vm_stats.invocations / max(1, baseline.vm_stats.invocations)
    print(f"[4/4] throughput: {baseline.vm_stats.invocations} -> "
          f"{guided.vm_stats.invocations} invocations "
          f"({100 * (gain - 1):+.1f}%) at equal workload-cycle budget")
    print(f"      compilations: {baseline.vm_stats.compilations} -> "
          f"{guided.vm_stats.compilations}")


if __name__ == "__main__":
    main()

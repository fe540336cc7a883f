#!/usr/bin/env python3
"""Reproduce the paper's Figure 1: VIProf vs stock OProfile on DaCapo ps.

The same workload is run twice, once per profiler, with identical seeds.
VIProf (top) attributes every sample — JIT application methods appear under
``JIT.App`` and Jikes RVM internals under ``RVM.map``.  Stock OProfile
(bottom) shows the identical execution as anonymous memory ranges and an
unsymbolized boot image, which is the limitation the paper sets out to fix.

Usage::

    python examples/figure1_side_by_side.py [--scale 0.5]
"""

import argparse
import tempfile
from pathlib import Path

from repro.system.experiment import run_case_study


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="ps")
    ap.add_argument("--scale", type=float, default=0.5)
    ap.add_argument("--rows", type=int, default=14)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="viprof-case-study-") as tmp:
        result = run_case_study(
            args.benchmark, time_scale=args.scale, limit=args.rows,
            session_dir=Path(tmp),
        )
    print(result.side_by_side())

    v = result.viprof_run
    o = result.oprofile_run
    print(f"\nVIProf logged {v.daemon_stats.samples_logged} samples "
          f"({v.daemon_stats.jit_samples} via the JIT fast path); "
          f"OProfile logged {o.daemon_stats.samples_logged} "
          f"({o.daemon_stats.anon_samples} through the anonymous path).")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Analysis workflows on top of VIProf profiles.

A vertically integrated profile is the *input* to the paper's long-term
goal (online adaptation).  This example walks the toolbox end to end on
one benchmark:

1. profile two configurations and **archive** the sessions (oparchive);
2. **diff** them — which methods' shares moved;
3. **annotate** the hottest JIT method at bytecode granularity;
4. build a **timeline** and detect phase transitions;
5. **export** the profile as CSV for external tools.

Usage::

    python examples/analysis_workflows.py [--benchmark pmd] [--scale 0.3]
"""

import argparse
import tempfile
from pathlib import Path

from repro import viprof_profile
from repro.analysis.timeline import build_timeline
from repro.oprofile.archive import SessionStore
from repro.profiling.export import report_to_csv
from repro.workloads import by_name


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="pmd")
    ap.add_argument("--scale", type=float, default=0.3)
    args = ap.parse_args()

    store = SessionStore(Path(tempfile.mkdtemp(prefix="viprof-sessions-")))

    # 1. Two configurations, archived.
    dense = viprof_profile(
        by_name(args.benchmark), period=45_000, time_scale=args.scale
    )
    sparse = viprof_profile(
        by_name(args.benchmark), period=90_000, time_scale=args.scale, seed=11
    )
    store.archive(dense, "dense")
    store.archive(sparse, "sparse")
    print(f"archived sessions: {[s.label for s in store.sessions()]} "
          f"under {store.root}\n")

    # 2. Cross-session diff: analyze over the two reports' summaries.
    diff = store.diff("dense", "sparse")
    print("=== top share movements (dense -> sparse) ===")
    print(diff.format_table(limit=8))

    # 3. Bytecode-level annotation of the hottest JIT method.
    vr = dense.viprof_report()
    hot = next(r for r in vr.report.sorted_rows() if r.image == "JIT.App")
    ann = vr.post.annotate_jit(hot.symbol, bucket_bytes=64)
    print(f"\n=== inside {hot.symbol} ===")
    print(ann.format_table(limit=8))

    # 4. Phase timeline.
    resolved = [vr.post.resolve(s) for s in vr.post.read_samples()]
    tl = build_timeline(resolved, window_cycles=dense.wall_cycles // 10 or 1)
    print("\n=== phase timeline (10 windows) ===")
    print(tl.format_table(top=1))
    print(f"transitions at windows: {tl.transitions() or 'none'}")

    # 5. CSV export.
    csv_text = report_to_csv(vr.report)
    out = store.root / "dense.csv"
    out.write_text(csv_text)
    print(f"\nCSV export: {out} ({len(csv_text.splitlines())} rows)")


if __name__ == "__main__":
    main()

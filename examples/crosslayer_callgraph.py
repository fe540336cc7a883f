#!/usr/bin/env python3
"""Cross-layer call-graph profiling.

The paper (§4.2) notes that VIProf "extends the call graph functionality of
Oprofile to include call sequence profiles across layers" but omits the
results for brevity.  This example shows what that capability produces: the
arcs whose endpoints sit in *different* vertical layers — JIT application
code calling into libc, the VM dispatching into JIT code, GC work invoked
on behalf of allocating application methods.  A single-layer profiler
cannot observe any of these.

Usage::

    python examples/crosslayer_callgraph.py [--scale 0.3]
"""

import argparse
import tempfile
from pathlib import Path

from repro import viprof_profile
from repro.workloads import by_name


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmark", default="pseudojbb")
    ap.add_argument("--scale", type=float, default=0.3)
    args = ap.parse_args()

    # The call graph is built in memory; the session is not needed after.
    with tempfile.TemporaryDirectory(prefix="viprof-callgraph-") as tmp:
        result = viprof_profile(
            by_name(args.benchmark),
            period=45_000,
            time_scale=args.scale,
            record_callgraph=True,
            session_dir=Path(tmp),
        )
    graph = result.callgraph
    assert graph is not None
    event = "GLOBAL_POWER_EVENTS"

    print("=== Cross-layer call arcs (time samples) ===")
    print(graph.format_cross_layer_table(event, limit=15))

    print("\n=== Layer transition matrix ===")
    matrix = graph.layer_transition_matrix(event)
    for (l_from, l_to), n in sorted(matrix.items(), key=lambda kv: -kv[1]):
        print(f"{l_from.value:>8} -> {l_to.value:<8} {n:6d} samples")


if __name__ == "__main__":
    main()

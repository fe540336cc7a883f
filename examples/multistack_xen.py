#!/usr/bin/env python3
"""Future-work demo: profiling multiple virtualized stacks (XenoProf).

Two complete guest stacks — each with its own kernel, Jikes-RVM-like VM,
heap, code maps, and workload — run time-sliced over one CPU under a
Xen-like hypervisor.  XenoProf owns the hardware counters and tags every
sample with the running domain, so post-processing produces:

* a per-domain vertically integrated profile (kernel → VM → JIT code of
  that one guest), and
* one unified horizontal+vertical profile of the whole physical machine,
  hypervisor included.

This is the system the paper's §5 sketches as future work.

Usage::

    python examples/multistack_xen.py [--scale 0.3]
"""

import argparse
import tempfile

from repro.workloads import by_name
from repro.xen import GuestSpec, MultiStackEngine


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=0.3)
    ap.add_argument("--period", type=int, default=45_000)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="xenoprof-") as session_dir:
        engine = MultiStackEngine(
            [
                GuestSpec(by_name("fop"), weight=256),
                GuestSpec(by_name("ps"), weight=512),  # double CPU share
            ],
            period=args.period,
            time_scale=args.scale,
            session_dir=session_dir,
        )
        result = engine.run()

        print(f"Simulated {result.wall_cycles:,} cycles; "
              f"{result.hypervisor.world_switches} world switches; "
              f"{len(result.buffer)} samples "
              f"({100 * result.xen_share():.2f}% in the hypervisor)\n")

        for dom in result.hypervisor.domains:
            print(f"=== Domain {dom.domain_id} ({dom.name}), "
                  f"{dom.cpu_cycles:,} cycles ===")
            print(result.domain_report(dom.domain_id).format_table(limit=6))
            print()

        print("=== Unified cross-stack profile ===")
        print(result.unified_report().format_table(limit=14))


if __name__ == "__main__":
    main()

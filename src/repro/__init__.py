"""repro — a reproduction of *VIProf: Vertically Integrated Full-System
Performance Profiler* (Mousa, Krintz, Youseff, Wolski; IPDPS workshops 2007).

The package provides:

``repro.hardware``
    A simulated CPU with hardware performance counters (HPCs) that raise
    non-maskable interrupts (NMIs) on overflow, plus statistical L2-cache
    and ITLB models that generate miss events.
``repro.os``
    A miniature operating-system substrate: ELF-like binary images with
    symbol tables, per-process address spaces built from virtual memory
    areas, a loader, a kernel that dispatches NMIs, and a scheduler.
``repro.jvm``
    A Jikes-RVM-like Java virtual machine: bytecode-level method model,
    baseline and optimizing JIT compilers that emit code bodies into a
    garbage-collected heap, an adaptive optimization system, and a copying
    nursery collector that *moves code* and delimits GC epochs.
``repro.oprofile``
    The OProfile baseline: kernel module (NMI handler, sample buffer),
    user-level daemon, sample files and the ``opreport`` post-processor.
``repro.viprof``
    The paper's contribution: the Runtime Profiler extension (heap
    registration, JIT.App classification, epoch tagging), the VM Agent
    (compile/move hooks, partial epoch code maps), and the extended
    post-processor (backward epoch traversal, boot-image map).
``repro.workloads``
    Synthetic SPEC JVM98 / DaCapo / pseudoJBB benchmark descriptions.
``repro.system``
    The full-system execution engine and the experiment matrix used to
    regenerate the paper's figures.

Quickstart::

    from repro import viprof_profile
    from repro.workloads import dacapo

    result = viprof_profile(dacapo.ps())
    print(result.report.format_table(limit=10))
"""

from repro.version import __version__
from repro.system.api import (
    base_run,
    oprofile_profile,
    viprof_profile,
)

__all__ = [
    "__version__",
    "base_run",
    "oprofile_profile",
    "viprof_profile",
]

#!/usr/bin/env python
"""Regenerate ``figure_matrix.json`` — the golden Figure 2/3 matrix.

Every ``paper_suite()`` workload runs under base, OProfile 90K and VIProf
45K/90K/450K at ``time_scale=0.05`` and seed 7, the way
:func:`repro.system.experiment.run_overhead_matrix` runs them.  For each
run the fixture records the wall and workload cycles, the ledger's cycles
and L2 misses per layer plus its idle cycles, every ``CpuStats``, VM and
GC statistic, ``buffer_lost``, and the sha256 of every session file; it
also records the Figure 2 and Figure 3 tables built from those runs.
``tests/system/test_golden_figure_matrix.py`` reruns every cell and
compares, which pins the simulator's cycle accounting bit for bit.

0.05 is the smallest scale at which every profiled cell takes at least
one NMI.

Run from the repo root::

    PYTHONPATH=src python tests/fixtures/golden/regen_figure_matrix.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.system.api import base_run, oprofile_profile, viprof_profile  # noqa: E402
from repro.system.experiment import (  # noqa: E402
    MEDIAN_PERIOD,
    PAPER_PERIODS,
    OverheadCell,
    OverheadMatrix,
)
from repro.workloads.base import paper_suite  # noqa: E402

PARAMS = dict(time_scale=0.05, seed=7)
GOLDEN = HERE / "figure_matrix.json"

#: (label, profiler, period) of every profiled cell, in matrix order.
CONFIGS = (("oprofile-90000", "oprofile", MEDIAN_PERIOD),) + tuple(
    (f"viprof-{p}", "viprof", p) for p in PAPER_PERIODS
)


def hash_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by POSIX relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def run_record(run) -> dict:
    """The simulated outcome of one engine run, as JSON-able data."""
    ledger = run.ledger
    return {
        "wall_cycles": run.wall_cycles,
        "workload_cycles": run.workload_cycles,
        "ledger": {
            "by_layer": {
                layer.value: [e.cycles, e.l2_misses]
                for layer, e in sorted(
                    ledger.by_layer.items(), key=lambda kv: kv[0].value
                )
            },
            "idle_cycles": ledger.idle_cycles,
        },
        "cpu_stats": dataclasses.asdict(run.cpu_stats),
        "vm_stats": dataclasses.asdict(run.vm_stats),
        "gc_stats": dataclasses.asdict(run.gc_stats),
        "buffer_lost": run.buffer_lost,
        "session_files": (
            hash_tree(run.session_dir) if run.session_dir is not None else {}
        ),
    }


def run_matrix(session_root: Path) -> dict:
    """Run all 45 cells with sessions under ``session_root``; return the
    fixture payload."""
    runs: dict[str, dict] = {}
    matrix = OverheadMatrix()
    for wl in paper_suite():
        base = base_run(wl, **PARAMS)
        runs[f"{wl.name}/base"] = run_record(base)
        matrix.base_seconds[wl.name] = base.seconds
        for label, profiler, period in CONFIGS:
            profile = oprofile_profile if profiler == "oprofile" else viprof_profile
            result = profile(
                wl, period=period, session_dir=session_root / wl.name / label,
                **PARAMS,
            )
            runs[f"{wl.name}/{label}"] = run_record(result)
            matrix.cells.append(
                OverheadCell(
                    benchmark=wl.name, profiler=profiler, period=period,
                    slowdown=result.slowdown_vs(base),
                    base_seconds=base.seconds,
                    profiled_seconds=result.seconds,
                )
            )
    return {
        "params": PARAMS,
        "runs": runs,
        "figure2": matrix.format_figure2().splitlines(),
        "figure3": matrix.format_figure3().splitlines(),
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="figure-matrix-") as tmp:
        payload = run_matrix(Path(tmp))
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

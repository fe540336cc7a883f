"""Experiment matrices behind the paper's figures.

* :func:`run_overhead_matrix` — Figure 2: for each benchmark, run base,
  OProfile at the median period, and VIProf at three periods; report
  normalized slowdowns.  Figure 3 (base times) falls out of the same runs.
* :func:`run_case_study` — Figure 1: profile DaCapo ``ps`` once with each
  profiler and return both symbol listings.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError
from repro.system.api import base_run, oprofile_profile, viprof_profile
from repro.system.engine import RunResult
from repro.workloads.base import Workload, by_name, paper_suite

__all__ = [
    "PAPER_PERIODS",
    "OverheadCell",
    "OverheadMatrix",
    "run_overhead_matrix",
    "run_case_study",
    "CaseStudyResult",
]

#: The paper's three sampling frequencies (cycles between samples).
PAPER_PERIODS = (45_000, 90_000, 450_000)
MEDIAN_PERIOD = 90_000


@dataclass(frozen=True, slots=True)
class OverheadCell:
    """One bar of Figure 2: a profiled run normalized to its base run."""

    benchmark: str
    profiler: str  # "oprofile" | "viprof"
    period: int
    slowdown: float
    base_seconds: float
    profiled_seconds: float


@dataclass
class OverheadMatrix:
    """All Figure 2 bars plus the Figure 3 base-time column."""

    cells: list[OverheadCell] = field(default_factory=list)
    base_seconds: dict[str, float] = field(default_factory=dict)

    def cell(self, benchmark: str, profiler: str, period: int) -> OverheadCell:
        for c in self.cells:
            if (
                c.benchmark == benchmark
                and c.profiler == profiler
                and c.period == period
            ):
                return c
        raise ConfigError(
            f"no overhead cell for ({benchmark!r}, {profiler!r}, {period})"
        )

    def slowdowns(self, profiler: str, period: int) -> dict[str, float]:
        return {
            c.benchmark: c.slowdown
            for c in self.cells
            if c.profiler == profiler and c.period == period
        }

    def average_slowdown(self, profiler: str, period: int) -> float:
        vals = list(self.slowdowns(profiler, period).values())
        return sum(vals) / len(vals) if vals else 0.0

    # -- formatting -----------------------------------------------------

    def format_figure2(self) -> str:
        """The Figure 2 table: one row per benchmark, one column per
        (profiler, period) configuration, values = normalized slowdown."""
        configs = [
            ("oprofile", MEDIAN_PERIOD, "Oprof 90K"),
            ("viprof", 45_000, "VIProf 45K"),
            ("viprof", 90_000, "VIProf 90K"),
            ("viprof", 450_000, "VIProf 450K"),
        ]
        names = sorted({c.benchmark for c in self.cells}, key=self._order)
        header = f"{'benchmark':<12}" + "".join(f"{lbl:>13}" for *_, lbl in configs)
        lines = [header]
        sums = [0.0] * len(configs)
        for name in names:
            row = [f"{name:<12}"]
            for i, (prof, period, _) in enumerate(configs):
                try:
                    s = self.cell(name, prof, period).slowdown
                except ConfigError:
                    row.append(f"{'-':>13}")
                    continue
                sums[i] += s
                row.append(f"{s:13.3f}")
            lines.append("".join(row))
        avg = [s / max(1, len(names)) for s in sums]
        lines.append(
            f"{'Average':<12}" + "".join(f"{a:13.3f}" for a in avg)
        )
        return "\n".join(lines)

    def format_figure3(self) -> str:
        """The Figure 3 table: base execution time in (simulated) seconds."""
        lines = [f"{'Benchmark':<12}{'Base time (s)':>14}"]
        names = sorted(self.base_seconds, key=self._order)
        for name in names:
            lines.append(f"{name:<12}{self.base_seconds[name]:14.2f}")
        avg = sum(self.base_seconds.values()) / max(1, len(self.base_seconds))
        lines.append(f"{'Average':<12}{avg:14.2f}")
        return "\n".join(lines)

    @staticmethod
    def _order(name: str) -> int:
        order = [
            "pseudojbb", "jvm98", "antlr", "bloat", "fop",
            "hsqldb", "pmd", "xalan", "ps",
        ]
        return order.index(name) if name in order else len(order)


def run_overhead_matrix(
    workloads: list[Workload] | None = None,
    periods: tuple[int, ...] = PAPER_PERIODS,
    seed: int = 7,
    time_scale: float = 1.0,
    include_oprofile: bool = True,
) -> OverheadMatrix:
    """Run the Figure 2 matrix and return the slowdown table.

    With the default ``time_scale`` this runs each benchmark for its full
    Figure 3 cycle budget, five times — expect a few minutes of wall time.
    """
    suite = workloads if workloads is not None else paper_suite()
    matrix = OverheadMatrix()
    for wl in suite:
        base = base_run(wl, seed=seed, time_scale=time_scale)
        base_s = base.seconds
        matrix.base_seconds[wl.name] = base_s
        configs: list[tuple[str, int]] = []
        if include_oprofile:
            configs.append(("oprofile", MEDIAN_PERIOD))
        configs.extend(("viprof", period) for period in periods)
        for profiler, period in configs:
            profile = oprofile_profile if profiler == "oprofile" else viprof_profile
            # Only the cycle counts are kept, so each run's session
            # artifacts live in a directory removed as soon as it ends.
            with tempfile.TemporaryDirectory(
                prefix=f"viprof-{wl.name}-"
            ) as tmp:
                result = profile(
                    wl, period=period, seed=seed, time_scale=time_scale,
                    session_dir=Path(tmp),
                )
            matrix.cells.append(
                OverheadCell(
                    benchmark=wl.name,
                    profiler=profiler,
                    period=period,
                    slowdown=result.slowdown_vs(base),
                    base_seconds=base_s,
                    profiled_seconds=result.seconds,
                )
            )
    return matrix


@dataclass
class CaseStudyResult:
    """Figure 1: the same run profiled by both tools."""

    viprof_run: RunResult
    oprofile_run: RunResult
    viprof_table: str
    oprofile_table: str

    def side_by_side(self, limit: int = 12) -> str:
        return (
            "=== VIProf ===\n"
            + self.viprof_table
            + "\n\n=== Oprofile ===\n"
            + self.oprofile_table
        )


def run_case_study(
    benchmark: str = "ps",
    period: int = MEDIAN_PERIOD,
    seed: int = 7,
    time_scale: float = 1.0,
    limit: int = 12,
    *,
    session_dir: Path,
) -> CaseStudyResult:
    """Reproduce Figure 1 for ``benchmark`` (DaCapo ``ps`` by default).

    The two sessions go to ``viprof/`` and ``oprofile/`` under
    ``session_dir``, which the caller owns; the tables are rendered before
    this returns, so the directory may go as soon as it does.
    """
    wl_v = by_name(benchmark)
    wl_o = by_name(benchmark)
    vrun = viprof_profile(
        wl_v, period=period, seed=seed, time_scale=time_scale,
        session_dir=session_dir / "viprof",
    )
    orun = oprofile_profile(
        wl_o, period=period, seed=seed, time_scale=time_scale,
        session_dir=session_dir / "oprofile",
    )
    vreport = vrun.viprof_report().report
    oreport = orun.oprofile_report()
    return CaseStudyResult(
        viprof_run=vrun,
        oprofile_run=orun,
        viprof_table=vreport.format_table(limit=limit),
        oprofile_table=oreport.format_table(limit=limit),
    )

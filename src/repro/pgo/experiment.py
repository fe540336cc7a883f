"""The two-pass profile-guided optimization experiment.

Pass 1 profiles a benchmark with VIProf; the hot-method set is extracted
from the resulting vertically integrated profile (only possible *because*
VIProf resolves JIT samples to methods).  Pass 2 re-runs the benchmark with
the guided adaptive system.  Both passes execute the same workload-cycle
budget, so the guided run's win shows up as *throughput*: more application
invocations completed within the budget, because hot methods run at high
optimization from their first call instead of warming up at baseline
quality.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.pgo.guided import PgoAdaptiveSystem, hot_method_names
from repro.jvm.compiler import CompilerTier
from repro.system.api import base_run, viprof_profile
from repro.workloads.base import Workload

__all__ = ["PgoResult", "run_pgo_experiment"]


@dataclass(frozen=True)
class PgoResult:
    """Outcome of the two-pass experiment.

    Attributes:
        hot_methods: size of the extracted hot set.
        pgo_compiles: hot methods compiled directly at the high tier.
        baseline_invocations / guided_invocations: application throughput
            in each pass (same workload-cycle budget).
        throughput_gain: guided / baseline invocation ratio.
        baseline_compilations / guided_compilations: total compile events
            (the guided run skips intermediate ladder steps for hot code).
    """

    benchmark: str
    hot_methods: int
    pgo_compiles: int
    baseline_invocations: int
    guided_invocations: int
    baseline_compilations: int
    guided_compilations: int

    @property
    def throughput_gain(self) -> float:
        if not self.baseline_invocations:
            return 0.0
        return self.guided_invocations / self.baseline_invocations

    def format_summary(self) -> str:
        return (
            f"{self.benchmark}: {self.hot_methods} hot methods, "
            f"{self.pgo_compiles} direct-opt compiles; throughput "
            f"{self.baseline_invocations} -> {self.guided_invocations} "
            f"invocations ({100 * (self.throughput_gain - 1):+.1f}%)"
        )


def run_pgo_experiment(
    workload_factory,
    time_scale: float = 0.5,
    period: int = 45_000,
    min_share: float = 0.005,
    direct_tier: CompilerTier = CompilerTier.OPT1,
    seed: int = 7,
) -> PgoResult:
    """Run the profile pass then the guided pass.

    Args:
        workload_factory: zero-argument callable returning a fresh
            :class:`Workload` (fresh instances keep the passes independent).
        time_scale / period / seed: run parameters shared by both passes.
        min_share: hot-method threshold over the profile.
        direct_tier: tier hot methods are compiled at immediately.
    """
    wl_profile = workload_factory()
    if not isinstance(wl_profile, Workload):
        raise ConfigError("workload_factory must return a Workload")

    # Pass 1: profile.  Only the hot set outlives the session.
    with tempfile.TemporaryDirectory(prefix=f"viprof-{wl_profile.name}-") as tmp:
        prof_run = viprof_profile(
            wl_profile, period=period, time_scale=time_scale, seed=seed,
            noise=False, session_dir=Path(tmp),
        )
        report = prof_run.viprof_report().report
    hot = hot_method_names(report, min_share=min_share)

    # Baseline pass: normal adaptive system, no profiler attached.
    baseline = base_run(
        workload_factory(), time_scale=time_scale, seed=seed, noise=False
    )

    # Guided pass: same budget, hot set compiled directly at direct_tier.
    from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine

    guided_systems: list[PgoAdaptiveSystem] = []

    def factory() -> PgoAdaptiveSystem:
        s = PgoAdaptiveSystem(
            hot_names=frozenset(hot), direct_tier=direct_tier
        )
        guided_systems.append(s)
        return s

    cfg = EngineConfig(
        mode=ProfilerMode.NONE, seed=seed, time_scale=time_scale,
        noise=False, adaptive_factory=factory,
    )
    guided = SystemEngine(workload_factory(), cfg).run()

    return PgoResult(
        benchmark=wl_profile.name,
        hot_methods=len(hot),
        pgo_compiles=guided_systems[0].pgo_compiles if guided_systems else 0,
        baseline_invocations=baseline.vm_stats.invocations,
        guided_invocations=guided.vm_stats.invocations,
        baseline_compilations=baseline.vm_stats.compilations,
        guided_compilations=guided.vm_stats.compilations,
    )

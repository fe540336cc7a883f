"""Workload definition and scheduling.

A :class:`Workload` satisfies :class:`repro.jvm.machine.WorkloadProgram`:
it owns a method population and yields an infinite, seeded stream of
``(method_index, invocation_burst)`` pairs.  The schedule is *phased*:
methods are partitioned into execution phases that dominate successive
stretches of the run, so fresh methods keep getting hot (and compiled)
deep into execution — the behaviour that determines how code-map writes
amortize per benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from random import Random
from typing import Callable, Iterator

from repro.errors import WorkloadError
from repro.jvm.model import JavaMethod

__all__ = ["Workload", "SIM_HZ", "by_name", "paper_suite", "register"]

#: Simulated clock rate: 1/1000 of the paper's 3.4 GHz Pentium 4 Xeon.
SIM_HZ = 3_400_000

#: Default native-code mix for a benchmark that does ordinary I/O and
#: string work: (image, symbol, weight).
DEFAULT_NATIVE_MIX: tuple[tuple[str, str, float], ...] = (
    ("libc-2.3.2.so", "memcpy", 4.0),
    ("libc-2.3.2.so", "strcmp", 2.0),
    ("libc-2.3.2.so", "read", 1.5),
    ("libc-2.3.2.so", "write", 1.5),
    ("libc-2.3.2.so", "malloc", 1.0),
)


@dataclass
class Workload:
    """One benchmark's model.

    Attributes:
        name: benchmark name as it appears in the paper's figures.
        base_time_s: paper-reported base execution time (Figure 3); the
            engine's cycle budget is ``base_time_s * SIM_HZ * time_scale``.
        methods: method population (index-addressed).
        survival_rate: fraction of nursery data surviving a collection.
        javalib_fraction / native_fraction: share of application cycles
            spent in boot-image Java library code and native libraries.
        native_mix: native symbols the native share is drawn from.
        nursery_bytes / mature_bytes: heap geometry.
        phases: number of execution phases; 1 = stationary workload.
        burst: (lo, hi) invocations per schedule pick.
        seed: schedule/workload determinism root.
    """

    name: str
    base_time_s: float
    methods: list[JavaMethod]
    survival_rate: float = 0.10
    javalib_fraction: float = 0.06
    native_fraction: float = 0.05
    native_mix: tuple[tuple[str, str, float], ...] = DEFAULT_NATIVE_MIX
    nursery_bytes: int = 512 * 1024
    mature_bytes: int = 12 * 1024 * 1024
    phases: int = 4
    burst: tuple[int, int] = (8, 40)
    seed: int = 97
    description: str = ""
    _weights: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.methods:
            raise WorkloadError(f"workload {self.name!r} has no methods")
        if not 0.0 <= self.survival_rate <= 1.0:
            raise WorkloadError("survival_rate must be in [0,1]")
        if self.javalib_fraction + self.native_fraction >= 0.9:
            raise WorkloadError("javalib+native fractions leave no app time")
        if self.phases < 1:
            raise WorkloadError("phases must be >= 1")
        if not 0 < self.burst[0] <= self.burst[1]:
            raise WorkloadError(f"bad burst range {self.burst}")
        for i, m in enumerate(self.methods):
            m.index = i
        self._weights = [m.weight for m in self.methods]
        if sum(self._weights) <= 0:
            raise WorkloadError("method weights sum to zero")

    # ------------------------------------------------------------------

    def budget_cycles(self, time_scale: float = 1.0) -> int:
        """Workload-cycle budget for the engine."""
        if time_scale <= 0:
            raise WorkloadError("time_scale must be positive")
        return int(self.base_time_s * SIM_HZ * time_scale)

    def schedule(self, rng: Random) -> Iterator[tuple[int, int]]:
        """Infinite phased invocation schedule.

        Each phase strongly prefers its own slice of the method population
        (80 % of picks) with a global tail (20 %), so later phases surface
        previously cold methods — triggering compilation and code-map
        traffic throughout the run, not only at startup.
        """
        n = len(self.methods)
        indices = list(range(n))
        per_phase = max(1, n // self.phases)
        phase_groups = [
            indices[i * per_phase : (i + 1) * per_phase]
            for i in range(self.phases)
        ]
        # Any remainder methods join the last phase.
        tail = indices[self.phases * per_phase :]
        if tail:
            phase_groups[-1] = phase_groups[-1] + tail
        picks_per_phase = 400
        # Cumulative weights, computed once: the same draws as passing
        # the weights to every ``choices`` call.
        cum_weights = list(accumulate(self._weights))
        group_cum_weights = [
            list(accumulate(self._weights[i] for i in group))
            for group in phase_groups
        ]
        phase = 0
        while True:
            group = phase_groups[phase % self.phases]
            group_cum = group_cum_weights[phase % self.phases]
            for _ in range(picks_per_phase):
                if group and rng.random() < 0.8:
                    idx = rng.choices(group, cum_weights=group_cum)[0]
                else:
                    idx = rng.choices(indices, cum_weights=cum_weights)[0]
                burst = rng.randint(*self.burst)
                yield idx, burst
            phase += 1


# ---------------------------------------------------------------------------
# benchmark registry
# ---------------------------------------------------------------------------

WorkloadFactory = Callable[[], Workload]

_REGISTRY: dict[str, WorkloadFactory] = {}


def register(name: str, factory: WorkloadFactory) -> None:
    """Register a benchmark factory under its paper name."""
    if name in _REGISTRY:
        raise WorkloadError(f"benchmark {name!r} already registered")
    _REGISTRY[name] = factory


def by_name(name: str) -> Workload:
    """Instantiate a registered benchmark by its paper name."""
    _ensure_loaded()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise WorkloadError(f"unknown benchmark {name!r} (known: {known})") from None
    return factory()


def paper_suite() -> list[Workload]:
    """The Figure 2 benchmark set, in the figure's x-axis order."""
    _ensure_loaded()
    names = [
        "pseudojbb", "jvm98", "antlr", "bloat", "fop",
        "hsqldb", "pmd", "xalan", "ps",
    ]
    return [by_name(n) for n in names]


def _ensure_loaded() -> None:
    # Import benchmark modules for their registration side effects.
    from repro.workloads import dacapo, pseudojbb, specjvm98  # noqa: F401

"""Deterministic, seedable fault injection for crash-recovery testing.

The collection and resolution stacks are threaded with *named failure
points* — places where a real deployment can die mid-write (a daemon
killed between drain chunks, a torn buffered spill, a half-written epoch
map).  Each site calls :func:`fire` with its point name and an optional
*effect*: a callable that, given the plan's seeded RNG, writes exactly
the partial state a crash there would leave on disk.

Nothing happens unless a test has *armed* a :class:`FaultPlan`:

* **Disarmed** (the default, always, in production): :func:`armed`
  is False and instrumented sites skip the :func:`fire` call entirely —
  one module-global load and a None check, so golden byte-parity and the
  ``BENCH_*`` benchmarks are untouched.
* **Armed**: every ``fire`` increments the point's hit counter; when the
  plan's point reaches its target hit the effect runs (fed a
  ``random.Random(seed)`` so partial damage is reproducible) and
  :class:`~repro.errors.InjectedFault` is raised, which the harness
  treats as the process dying on the spot.
* **Observe mode** (``arm()`` with no plan): hits are counted but
  nothing fires — the crash-matrix test first *learns* how often each
  point is reached in a run, then replays the run crashing at the
  first / middle / last hit.

Determinism is the whole point: the simulated system is deterministic
under a fixed workload + seed, and the injector adds no entropy beyond
the plan's own seed, so a crashed run is byte-identical to its fault-free
twin right up to the injected death.  That is what lets the recovery
tests assert salvaged artifacts are *prefixes* of the undamaged run's.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import InjectedFault, ProfilerError

__all__ = [
    "FaultPoint",
    "FaultPlan",
    "FaultInjector",
    "FAULT_POINTS",
    "ALL_FAULT_POINT_NAMES",
    "GUEST_FAULT_POINTS",
    "ALL_GUEST_FAULT_POINT_NAMES",
    "WRITER_SPILL",
    "DAEMON_DRAIN",
    "CODEMAP_WRITE",
    "AGENT_MAP_EMIT",
    "SESSION_TEARDOWN",
    "ARENA_WRITE",
    "GUEST_KILL",
    "GUEST_MAP_TEAR",
    "arm",
    "armed",
    "fire",
    "current",
]

#: Effect signature: given the plan's seeded RNG, write the partial
#: on-disk damage the crash leaves behind.  Runs at most once per plan.
Effect = Callable[[random.Random], None]


@dataclass(frozen=True, slots=True)
class FaultPoint:
    """One registered failure point: a stable name, the code site, and
    what dying there damages."""

    name: str
    site: str
    description: str


WRITER_SPILL = "writer.spill"
DAEMON_DRAIN = "daemon.drain-chunk"
CODEMAP_WRITE = "codemap.write"
AGENT_MAP_EMIT = "agent.map-emit"
SESSION_TEARDOWN = "session.teardown"
ARENA_WRITE = "arena.write"

#: Every failure point threaded through the stack.  The crash-matrix test
#: parametrizes over this tuple, so adding a point here automatically
#: extends recovery coverage.
FAULT_POINTS: tuple[FaultPoint, ...] = (
    FaultPoint(
        WRITER_SPILL,
        "repro.profiling.record_codec.RecordFileWriter._spill",
        "die mid-spill of a buffered sample-file writer: a prefix of the "
        "pending buffer reaches the OS, cut inside a record (torn file)",
    ),
    FaultPoint(
        DAEMON_DRAIN,
        "repro.oprofile.daemon.OprofileDaemon.wakeup",
        "die between drain chunks: records already handed to writers but "
        "still buffered are lost; sample files keep a record-aligned "
        "prefix",
    ),
    FaultPoint(
        CODEMAP_WRITE,
        "repro.viprof.codemap.CodeMapWriter.write",
        "die mid-write of an epoch map: the map file holds a prefix of "
        "the text cut inside a record line (malformed, quarantinable)",
    ),
    FaultPoint(
        AGENT_MAP_EMIT,
        "repro.viprof.vm_agent.ViprofVmAgent._write_map",
        "die before the agent emits the closing epoch's map: the epoch's "
        "compiles and move flags are lost entirely (missing map)",
    ),
    FaultPoint(
        SESSION_TEARDOWN,
        "repro.viprof.session.ViprofSession.stop",
        "die at session stop before the final drain: undrained kernel "
        "buffer and writer-buffered records are lost; no final flush",
    ),
    FaultPoint(
        ARENA_WRITE,
        "repro.viprof.arena.build_arena",
        "die mid-write of the compiled code-map arena: the arena file "
        "holds a torn byte prefix (bad checksum, detectable; readers "
        "fall back to the text maps)",
    ),
)

GUEST_KILL = "guest.kill"
GUEST_MAP_TEAR = "guest.map-tear"

#: Guest-scoped failure points: these fire inside one guest stack of the
#: multi-stack engine and kill *that guest only* — the hypervisor keeps
#: time-slicing the sibling domains, exactly as a real guest crash leaves
#: the host (and XenoProf's hypervisor-side buffer) running.  They live
#: in their own registry because the single-stack crash matrix asserts
#: every entry of :data:`FAULT_POINTS` is reachable in a single-stack
#: run, which a guest-lifecycle point never is; the guest-kill isolation
#: matrix (``tests/integration/test_guest_isolation.py``) parametrizes
#: over this tuple instead.
GUEST_FAULT_POINTS: tuple[FaultPoint, ...] = (
    FaultPoint(
        GUEST_KILL,
        "repro.xen.engine.MultiStackEngine.run",
        "kill a guest mid-epoch between VM chunks: its current epoch's "
        "code map is never emitted (missing map); sibling domains and "
        "the hypervisor-side sample buffer are untouched",
    ),
    FaultPoint(
        GUEST_MAP_TEAR,
        "repro.xen.engine.MultiStackEngine._take_guest_chunk",
        "kill a guest during agent work and tear its newest epoch map: "
        "the map file keeps a prefix cut inside a record line "
        "(malformed, quarantinable); sibling domains are untouched",
    ),
)

ALL_FAULT_POINT_NAMES: tuple[str, ...] = tuple(p.name for p in FAULT_POINTS)
ALL_GUEST_FAULT_POINT_NAMES: tuple[str, ...] = tuple(
    p.name for p in GUEST_FAULT_POINTS
)
_BY_NAME: dict[str, FaultPoint] = {
    p.name: p for p in (*FAULT_POINTS, *GUEST_FAULT_POINTS)
}


def point_named(name: str) -> FaultPoint:
    """Look a registered fault point up by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ProfilerError(
            f"unknown fault point {name!r} "
            f"(registered: {', '.join(_BY_NAME)})"
        ) from None


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Crash at the ``hit``-th (1-based) firing of ``point``.

    ``seed`` feeds the RNG handed to the point's damage effect, so the
    exact byte cut of the partial write is reproducible.
    """

    point: str
    hit: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        point_named(self.point)
        if self.hit < 1:
            raise ProfilerError(
                f"fault plan hit must be >= 1, got {self.hit}"
            )


@dataclass
class FaultInjector:
    """Counts fault-point hits and fires a plan's crash at its target.

    ``plan=None`` is observe mode: counting only, nothing fires.
    """

    plan: FaultPlan | None = None
    hits: dict[str, int] = field(default_factory=dict)
    fired: InjectedFault | None = None

    def __post_init__(self) -> None:
        self._rng = random.Random(self.plan.seed if self.plan else 0)

    def hit(self, point: str, effect: Effect | None = None) -> None:
        """Record one arrival at ``point``; crash if the plan says so."""
        point_named(point)
        n = self.hits.get(point, 0) + 1
        self.hits[point] = n
        plan = self.plan
        if (
            plan is None
            or self.fired is not None
            or plan.point != point
            or n != plan.hit
        ):
            return
        fault = InjectedFault(point=point, hit=n)
        self.fired = fault
        if effect is not None:
            effect(self._rng)
        raise fault


#: The armed injector, if any.  Module-global so instrumented sites pay
#: one load + None check when disarmed.
_ACTIVE: FaultInjector | None = None


def armed() -> bool:
    """True when an injector (plan or observe mode) is armed."""
    return _ACTIVE is not None


def current() -> FaultInjector | None:
    """The armed injector (for tests inspecting hit counts)."""
    return _ACTIVE


def fire(point: str, effect: Effect | None = None) -> None:
    """Announce arrival at a named fault point.

    No-op when disarmed.  Instrumented sites guard the call with
    :func:`armed` so the disarmed fast path never even builds the effect
    closure.
    """
    inj = _ACTIVE
    if inj is not None:
        inj.hit(point, effect)


@contextmanager
def arm(plan: FaultPlan | None = None) -> Iterator[FaultInjector]:
    """Arm an injector for the duration of a ``with`` block.

    ``plan=None`` arms observe mode (hit counting only).  Nesting is an
    error: one crash per simulated process.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise ProfilerError("fault injector already armed")
    inj = FaultInjector(plan=plan)
    _ACTIVE = inj
    try:
        yield inj
    finally:
        _ACTIVE = None

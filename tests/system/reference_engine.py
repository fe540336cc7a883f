"""Reference VM executor: the oracle for the quiet-run path.

:class:`PerChunkExecutor` is :class:`~repro.system.engine.VmExecutor`
taking every chunk of every activity on its own, as the engines did
before quiet runs were settled in one step: each chunk, read through the
per-chunk view :func:`run_steps`, gets its own cache-miss draw, its own
scalar ITLB draw, its own :class:`EventCounts`, its own
:meth:`CPU.execute` and its own ledger record.

Each :meth:`~PerChunkExecutor.take_chunks` call takes one chunk, so the
engine's outer loop (scheduling, timer ticks, slice ends, the budget,
the profile window, the Xen guest fault points) checks the tick, the
slice end and the budget before every chunk.  The production executor
and this one can differ only in how they execute chunks.

:func:`per_chunk_executor` substitutes this executor for the production
one in both engines, :class:`~repro.system.engine.SystemEngine` and
:class:`~repro.xen.engine.MultiStackEngine`; :class:`PerChunkEngine` is
the single-stack engine built on it.  Nothing in ``src/`` can select it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator
from unittest import mock

from repro.errors import ConfigError
from repro.hardware.cpu import CpuMode
from repro.hardware.events import EventCounts
from repro.hardware.memory import WorkingSet
from repro.hardware.tlb import PAGE_BITS, StatisticalTlbModel
from repro.jvm.machine import StepKind, VmRun
from repro.profiling.model import TruthLabel
from repro.system import engine as engine_module
from repro.system.engine import SystemEngine, VmExecutor
from repro.xen import engine as xen_engine_module


@dataclass(slots=True)
class VmStep:
    """One chunk of VM-process execution (the per-chunk view of a
    :class:`VmRun`).

    Attributes:
        kind: which code category the PC is in.
        pc: start address of the swept range.
        code_len: length of the swept range in bytes.
        cycles / instructions / accesses: cost of the slice.
        working_set: data region touched (None => negligible data traffic).
        truth: simulator ground truth for accuracy scoring.
    """

    kind: StepKind
    pc: int
    code_len: int
    cycles: int
    instructions: int
    accesses: int
    working_set: WorkingSet | None
    truth: TruthLabel
    caller: TruthLabel | None = None


def run_steps(run: VmRun) -> Iterator[VmStep]:
    """Take the run's remaining chunks, one :class:`VmStep` each."""
    for cycles, instructions, accesses in run:
        yield VmStep(
            kind=run.kind, pc=run.pc, code_len=run.code_len,
            cycles=cycles, instructions=instructions, accesses=accesses,
            working_set=run.working_set, truth=run.truth, caller=run.caller,
        )


def vm_steps(runs: Iterable[VmRun]) -> Iterator[VmStep]:
    """The per-chunk view of a run stream: every run's chunks as
    :class:`VmStep` records, in order.  The next run is drawn from
    ``runs`` only once the current one has no chunk left."""
    for run in runs:
        yield from run_steps(run)


def itlb_misses_for_step(
    tlb: StatisticalTlbModel, code_len: int, footprint_bytes: int
) -> int:
    """One chunk's ITLB misses, drawn alone: one scalar binomial from
    the model's stream, as the per-chunk path drew it."""
    if code_len < 0 or footprint_bytes < 0:
        raise ConfigError("negative code_len/footprint")
    if footprint_bytes <= tlb.reach_bytes:
        return 0
    pages = max(1, (code_len + (1 << PAGE_BITS) - 1) >> PAGE_BITS)
    rate = 1.0 - tlb.reach_bytes / footprint_bytes
    m = int(tlb._rng.binomial(pages, min(0.95, rate)))
    tlb.misses += m
    return m


class PerChunkExecutor(VmExecutor):
    """:class:`VmExecutor` executing the VM one chunk at a time."""

    def start_run(self, run: VmRun) -> None:
        self.current = run
        self._steps = run_steps(run)
        self._left = run.n_chunks

    def take_chunks(self, limit: float) -> bool:
        """Execute the current run's next chunk alone.  Returns False,
        so the caller checks the clock and the budget before the next."""
        step = next(self._steps)
        self._left -= 1
        if not self._left:
            self.current = None
        ws = step.working_set
        accesses = step.accesses
        misses = (
            self.cache.misses_for(ws, accesses)
            if ws is not None and accesses > 0
            else 0
        )
        footprint = (
            engine_module._BOOT_HOT_CODE_BYTES
            + self.machine.stats.live_code_bytes
        )
        itlb = itlb_misses_for_step(self.tlb, step.code_len, footprint)
        instructions = step.instructions
        counts = EventCounts(
            step.cycles, instructions, accesses, misses,
            instructions // 6, instructions // 120, itlb,
        )
        self.execute(
            step.pc, step.code_len, counts, CpuMode.USER, self.task_id,
            step.truth, step.caller,
        )
        if step.kind is not StepKind.AGENT:
            self.workload_cycles += step.cycles
        return False

    def finish(self) -> None:
        for run in self.machine.finish():
            self.start_run(run)
            while self.current is not None:
                self.take_chunks(math.inf)


@contextmanager
def per_chunk_executor() -> Iterator[None]:
    """Build engines on :class:`PerChunkExecutor` within the block: both
    engines construct their executors by the module-level name."""
    with mock.patch.object(engine_module, "VmExecutor", PerChunkExecutor), \
            mock.patch.object(xen_engine_module, "VmExecutor", PerChunkExecutor):
        yield


class PerChunkEngine(SystemEngine):
    """:class:`SystemEngine` built on :class:`PerChunkExecutor`."""

    def _build_machine(self) -> None:
        with per_chunk_executor():
            super()._build_machine()

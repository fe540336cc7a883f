"""Reference VM loop: the oracle for the engine's quiet-run path.

:class:`PerChunkEngine` is :class:`~repro.system.engine.SystemEngine`
with the VM loop as it was before quiet runs were settled in one step.
Every chunk of every activity is taken on its own, through the per-chunk
view :func:`~repro.jvm.machine.vm_steps`, and gets its own cache-miss
draw, its own scalar ITLB draw, its own :class:`EventCounts`, its own
:meth:`CPU.execute` and its own ledger record.

The outer loop (scheduling, timer ticks, slice ends, the budget, the
profile window) is the production one, which checks the tick, the slice
end and the budget before every chunk it asks for; here it asks for one
chunk at a time.  So the two engines can differ only in how they execute
chunks.  Nothing in ``src/`` can select this loop.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hardware.cpu import CpuMode
from repro.hardware.events import EventCounts
from repro.hardware.tlb import PAGE_BITS, StatisticalTlbModel
from repro.jvm.machine import StepKind, VmStep, vm_steps
from repro.system import engine as engine_module
from repro.system.engine import SystemEngine


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


class PerChunkEngine(SystemEngine):
    """:class:`SystemEngine` executing the VM one chunk at a time."""

    _steps = None

    def _exec_vm(self, limit: int) -> None:
        if self._steps is None:
            self._steps = vm_steps(self._vm_runs)
        self._exec_step(next(self._steps))

    def _finish_vm(self) -> None:
        for step in vm_steps(self.machine.finish()):
            self._exec_step(step)

    def _exec_step(self, step: VmStep) -> None:
        ws = step.working_set
        accesses = step.accesses
        misses = (
            self._cache.misses_for(ws, accesses)
            if ws is not None and accesses > 0
            else 0
        )
        footprint = (
            engine_module._BOOT_HOT_CODE_BYTES
            + self.machine.stats.live_code_bytes
        )
        itlb = itlb_misses_for_step(self._tlb, step.code_len, footprint)
        instructions = step.instructions
        counts = EventCounts(
            step.cycles, instructions, accesses, misses,
            instructions // 6, instructions // 120, itlb,
        )
        self._execute(
            step.pc, step.code_len, counts, CpuMode.USER, self.bench.pid,
            step.truth, step.caller,
        )
        if step.kind is not StepKind.AGENT:
            self.workload_cycles += step.cycles

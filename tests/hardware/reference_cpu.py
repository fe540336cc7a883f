"""Reference quantum executor: the oracle for :meth:`CPU.execute`.

This is the CPU's quantum loop as it was before quanta that overflow no
counter got a single-pass path: *every* quantum goes through
``first_overflow`` -> ``scaled``/``minus`` -> ``consume_all``, and both
walks visit every counter in the bank through its mode mask.  It shares
the production :class:`CounterBank`, :class:`HardwareCounter` and
:class:`NMILine` (their state is what gets compared) but none of the
execution code, and nothing in ``src/`` can select it.
"""

from __future__ import annotations

from repro.errors import HardwareError
from repro.hardware.counters import CounterBank, HardwareCounter
from repro.hardware.cpu import CpuStats
from repro.hardware.events import EventCounts
from repro.hardware.interrupts import CpuMode, InterruptFrame, NMILine

_PC_ALIGN = 4
_MAX_SPLITS = 100_000


def first_overflow(
    counters: tuple[HardwareCounter, ...], counts: EventCounts, kernel_mode: bool
) -> tuple[HardwareCounter, int, int] | None:
    best: tuple[HardwareCounter, int, int] | None = None
    cycles = counts.cycles
    for ctr in counters:
        if not ctr.counts_in_mode(kernel_mode):
            continue
        delta = getattr(counts, ctr.event.counts_field)
        at = ctr.events_to_overflow(delta)
        if at is None:
            continue
        if delta == 0:
            continue
        # Cycle position of the overflow under uniform accrual.
        cyc_at = (at * cycles) // delta if cycles else 0
        if best is None or cyc_at < best[2]:
            best = (ctr, at, cyc_at)
    return best


def consume_all(
    counters: tuple[HardwareCounter, ...], counts: EventCounts, kernel_mode: bool
) -> None:
    for ctr in counters:
        if not ctr.counts_in_mode(kernel_mode):
            continue
        delta = getattr(counts, ctr.event.counts_field)
        if delta:
            ctr.consume(delta)


class ReferenceCPU:
    """Same state as :class:`repro.hardware.cpu.CPU`, split loop only."""

    def __init__(self) -> None:
        self.counters = CounterBank()
        self.nmi = NMILine()
        self.cycle = 0
        self.current_task_id = 0
        self.stats = CpuStats()

    def execute(
        self,
        pc_start: int,
        code_len: int,
        counts: EventCounts,
        mode: CpuMode = CpuMode.USER,
    ) -> None:
        if pc_start < 0:
            raise HardwareError(f"negative pc_start {pc_start:#x}")
        if code_len < 0:
            raise HardwareError(f"negative code_len {code_len}")
        self.stats.quanta += 1
        kernel_mode = mode is CpuMode.KERNEL
        total_cycles = counts.cycles
        remaining = counts
        done_cycles = 0
        splits = 0

        while True:
            hit = first_overflow(self.counters.counters, remaining, kernel_mode)
            if hit is None:
                consume_all(self.counters.counters, remaining, kernel_mode)
                self._advance_clock(remaining.cycles, kernel_mode)
                return

            splits += 1
            self.stats.splits += 1
            if splits > _MAX_SPLITS:
                raise HardwareError(
                    f"quantum at pc={pc_start:#x} split more than "
                    f"{_MAX_SPLITS} times; sampling period too small for "
                    f"quantum size"
                )
            counter, at_events, cyc_at = hit

            if total_cycles > 0:
                pre = remaining.scaled(cyc_at, remaining.cycles or 1)
            else:
                pre = EventCounts()
            setattr(pre, counter.event.counts_field, at_events)
            post = remaining.minus(pre)

            consume_all(self.counters.counters, pre, kernel_mode)
            self._advance_clock(pre.cycles, kernel_mode)
            done_cycles += pre.cycles

            pc = self._interpolate_pc(pc_start, code_len, done_cycles, total_cycles)
            frame = InterruptFrame(
                pc=pc,
                mode=mode,
                event_name=counter.event.name,
                task_id=self.current_task_id,
                cycle=self.cycle,
            )
            handler_cycles = self.nmi.raise_nmi(frame)
            if handler_cycles:
                self.stats.nmi_count += 1
                self._run_masked(handler_cycles)

            remaining = post

    @staticmethod
    def _interpolate_pc(pc_start: int, code_len: int, done: int, total: int) -> int:
        if total <= 0 or code_len == 0:
            return pc_start
        off = (code_len * min(done, total)) // total
        off -= off % _PC_ALIGN
        if off >= code_len:
            off = code_len - (code_len % _PC_ALIGN or _PC_ALIGN)
            off = max(0, off)
        return pc_start + off

    def _advance_clock(self, cycles: int, kernel_mode: bool) -> None:
        self.cycle += cycles
        if kernel_mode:
            self.stats.kernel_cycles += cycles
        else:
            self.stats.user_cycles += cycles

    def _run_masked(self, handler_cycles: int) -> None:
        counts = EventCounts(cycles=handler_cycles, instructions=handler_cycles // 2)
        for ctr in self.counters.counters:
            if not ctr.counts_in_mode(kernel_mode=True):
                continue
            delta = getattr(counts, ctr.event.counts_field)
            if delta:
                self.stats.masked_overflows += ctr.consume(delta)
        self.cycle += handler_cycles
        self.stats.kernel_cycles += handler_cycles
        self.stats.nmi_handler_cycles += handler_cycles

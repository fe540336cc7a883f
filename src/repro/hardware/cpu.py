"""The simulated CPU.

The execution engine reduces all activity (JIT code, JVM internals, kernel
work, daemon work) to *quanta*: "the program counter swept ``code_len``
bytes starting at ``pc_start`` while these event deltas accrued".  Each
quantum is one call of :meth:`CPU.execute`.  The CPU's job is the part a
real profiler gets from hardware for free: as each quantum is consumed,
every armed performance counter counts down, and the quantum is *split at
the exact cycle of the earliest counter overflow* so the NMI handler
observes a precise program-counter value.  Events are assumed to accrue
uniformly across a quantum — quanta are small (a few hundred to a few
thousand cycles), so this matches the interpolation error of real
skid-prone P4 sampling rather well.

Most quanta overflow no counter; :meth:`CPU.execute` settles those in one
pass over the armed counters and splits only the quanta that do.  A
caller that has already checked a whole stretch of user-mode quanta
against the armed counters settles the stretch with one
:meth:`CPU.settle_quiet` call.

NMI-handler execution itself consumes cycles.  Those cycles are charged to
the CPU clock (they are the dominant component of profiling overhead) and
are run through the counters with interrupts masked, so counter state stays
consistent but no nested samples are taken — overflows occurring inside the
handler are recorded as ``masked_overflows``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareError
from repro.hardware.counters import CounterBank
from repro.hardware.events import EventCounts
from repro.hardware.interrupts import CpuMode, InterruptFrame, NMILine

__all__ = ["CPU", "CpuMode"]

#: Instruction alignment used when interpolating an overflow PC.
_PC_ALIGN = 4

#: Safety valve: a single quantum may not be split more often than this.
#: (With the paper's minimum period of 45 000 cycles and quanta of ~2 000
#: cycles a quantum is split at most once or twice.)
_MAX_SPLITS = 100_000


@dataclass(slots=True)
class CpuStats:
    """Counters the engine reads back after a run."""

    user_cycles: int = 0
    kernel_cycles: int = 0
    nmi_handler_cycles: int = 0
    nmi_count: int = 0
    masked_overflows: int = 0
    quanta: int = 0
    splits: int = 0

    @property
    def total_cycles(self) -> int:
        return self.user_cycles + self.kernel_cycles


class CPU:
    """Single simulated core: clock, counter bank, NMI line, current task."""

    def __init__(self, counters: CounterBank | None = None) -> None:
        self.counters = counters if counters is not None else CounterBank()
        self.nmi = NMILine()
        self.cycle = 0
        self.current_task_id = 0
        self.stats = CpuStats()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(
        self,
        pc_start: int,
        code_len: int,
        counts: EventCounts,
        mode: CpuMode = CpuMode.USER,
    ) -> None:
        """Consume one quantum, raising NMIs at each counter overflow.

        ``counts`` accrue while the PC sweeps ``code_len`` bytes from
        ``pc_start``; an overflow PC is interpolated inside that range.
        """
        if pc_start < 0:
            raise HardwareError(f"negative pc_start {pc_start:#x}")
        if code_len < 0:
            raise HardwareError(f"negative code_len {code_len}")
        stats = self.stats
        stats.quanta += 1
        kernel_mode = mode is CpuMode.KERNEL
        armed = self.counters.armed[kernel_mode]
        for ctr, field_name in armed:
            if getattr(counts, field_name) >= ctr.remaining:
                self._execute_split(pc_start, code_len, counts, mode, kernel_mode)
                return
        for ctr, field_name in armed:
            ctr.remaining -= getattr(counts, field_name)
        cycles = counts.cycles
        self.cycle += cycles
        if kernel_mode:
            stats.kernel_cycles += cycles
        else:
            stats.user_cycles += cycles

    def settle_quiet(self, quanta: int, totals: tuple[int, ...]) -> None:
        """Consume ``quanta`` user-mode quanta in one step.

        ``totals`` sums their event deltas, one total per
        :class:`EventCounts` field in field order (cycles first).  The
        caller has checked that the quanta, executed one after another,
        overflow no counter: every running total stayed below its field's
        :meth:`CounterBank.quiet_limits`.  The clock, the counters and
        :class:`CpuStats` end as they would after :meth:`execute` of each
        quantum.
        """
        for ctr, i in self.counters.armed_at[False]:
            ctr.remaining -= totals[i]
        cycles = totals[0]
        self.cycle += cycles
        stats = self.stats
        stats.user_cycles += cycles
        stats.quanta += quanta

    def _execute_split(
        self,
        pc_start: int,
        code_len: int,
        counts: EventCounts,
        mode: CpuMode,
        kernel_mode: bool,
    ) -> None:
        """Consume a quantum that overflows a counter: split it at each
        overflow, earliest first, and raise an NMI at every split point."""
        total_cycles = counts.cycles
        remaining = counts
        done_cycles = 0
        splits = 0

        while True:
            hit = self.counters.first_overflow(remaining, kernel_mode)
            if hit is None:
                self.counters.consume_all(remaining, kernel_mode)
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

            # Split the quantum at the overflow cycle.  Force the firing
            # counter's field to exactly the overflow distance so rounding
            # in the proportional scaling cannot strand the overflow.
            if total_cycles > 0:
                pre = remaining.scaled(cyc_at, remaining.cycles or 1)
            else:
                pre = EventCounts()
            setattr(pre, counter.event.counts_field, at_events)
            post = remaining.minus(pre)

            self.counters.consume_all(pre, kernel_mode)
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

    def idle(self, cycles: int) -> None:
        """Halt for ``cycles``: the clock advances but no events accrue
        (GLOBAL_POWER_EVENTS counts only un-halted time, so an idle CPU
        takes no samples — real OProfile behaves the same way)."""
        if cycles < 0:
            raise HardwareError(f"negative idle time {cycles}")
        self.cycle += cycles

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
        """Charge NMI-handler cycles with further NMIs masked.

        The handler runs in kernel mode; its cycles still tick the cycle
        counter (real profilers *do* sample their own handler occasionally;
        we model the P4 behaviour of the overflow being latched-and-lost),
        so overflows inside the handler reload silently.
        """
        counts = EventCounts(cycles=handler_cycles, instructions=handler_cycles // 2)
        for ctr, field_name in self.counters.armed[True]:
            delta = getattr(counts, field_name)
            if delta:
                self.stats.masked_overflows += ctr.consume(delta)
        self.cycle += handler_cycles
        self.stats.kernel_cycles += handler_cycles
        self.stats.nmi_handler_cycles += handler_cycles

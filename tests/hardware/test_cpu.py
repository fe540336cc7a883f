"""Unit tests for the CPU quantum executor: overflow splitting, PC
interpolation, NMI masking, and idle semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HardwareError
from repro.hardware.counters import CounterBank, CounterConfig
from repro.hardware.cpu import CPU
from repro.hardware.events import (
    BSQ_CACHE_REFERENCE,
    GLOBAL_POWER_EVENTS,
    EventCounts,
)
from repro.hardware.interrupts import CpuMode


def make_cpu(period=90_000, cache_period=None):
    cpu = CPU()
    cpu.counters.program(CounterConfig(event=GLOBAL_POWER_EVENTS, period=period))
    if cache_period:
        cpu.counters.program(
            CounterConfig(event=BSQ_CACHE_REFERENCE, period=cache_period)
        )
    return cpu


def quantum(cycles, pc=0x40_0000, code_len=0x400, misses=0, mode=CpuMode.USER):
    """``CPU.execute`` arguments for one quantum."""
    counts = EventCounts(cycles=cycles, instructions=cycles // 2, l2_misses=misses)
    return pc, code_len, counts, mode


class TestExecuteBasics:
    def test_clock_advances_by_quantum_cycles(self):
        cpu = make_cpu()
        cpu.execute(*quantum(10_000))
        assert cpu.cycle == 10_000
        assert cpu.stats.user_cycles == 10_000

    def test_kernel_mode_accounting(self):
        cpu = make_cpu()
        cpu.execute(*quantum(5_000, mode=CpuMode.KERNEL))
        assert cpu.stats.kernel_cycles == 5_000
        assert cpu.stats.user_cycles == 0

    def test_no_overflow_no_nmi(self):
        cpu = make_cpu(period=90_000)
        fired = []
        cpu.nmi.register(lambda f: fired.append(f) or 0)
        cpu.execute(*quantum(89_999))
        assert not fired

    def test_overflow_raises_nmi_at_interpolated_pc(self):
        cpu = make_cpu(period=90_000)
        frames = []
        cpu.nmi.register(lambda f: frames.append(f) or 0)
        # Two quanta of 45_000: overflow lands exactly at the end of the
        # second quantum.
        cpu.execute(*quantum(45_000, pc=0x1000, code_len=0x1000))
        cpu.execute(*quantum(45_000, pc=0x2000, code_len=0x1000))
        assert len(frames) == 1
        f = frames[0]
        assert 0x2000 <= f.pc < 0x3000
        assert f.event_name == "GLOBAL_POWER_EVENTS"

    def test_mid_quantum_overflow_pc_proportional(self):
        cpu = make_cpu(period=90_000)
        frames = []
        cpu.nmi.register(lambda f: frames.append(f) or 0)
        cpu.execute(*quantum(180_000, pc=0x10_000, code_len=0x1000))
        # Two overflows: at cycle 90_000 (midpoint) and 180_000 (end).
        assert len(frames) == 2
        assert frames[0].pc == 0x10_000 + 0x800
        assert frames[0].cycle == 90_000

    def test_multiple_counters_interleave(self):
        cpu = make_cpu(period=90_000, cache_period=1_000)
        events = []
        cpu.nmi.register(lambda f: events.append(f.event_name) or 0)
        cpu.execute(*quantum(90_000, misses=1_500))
        assert events.count("BSQ_CACHE_REFERENCE") == 1
        assert events.count("GLOBAL_POWER_EVENTS") == 1
        # The miss counter (1000 misses == 60_000 cycles) fires first.
        assert events[0] == "BSQ_CACHE_REFERENCE"

    def test_task_id_propagates(self):
        cpu = make_cpu(period=90_000)
        frames = []
        cpu.nmi.register(lambda f: frames.append(f) or 0)
        cpu.current_task_id = 4242
        cpu.execute(*quantum(90_000))
        assert frames[0].task_id == 4242


class TestHandlerCostCharging:
    def test_handler_cycles_charged_to_kernel(self):
        cpu = make_cpu(period=90_000)
        cpu.nmi.register(lambda f: 1_700)
        cpu.execute(*quantum(90_000))
        assert cpu.stats.nmi_handler_cycles == 1_700
        assert cpu.stats.kernel_cycles == 1_700
        assert cpu.cycle == 91_700

    def test_handler_cycles_tick_counters_masked(self):
        """Overflows during the handler reload silently (masked), they do
        not recurse into the handler."""
        cpu = make_cpu(period=90_000)
        calls = []
        cpu.nmi.register(lambda f: calls.append(f) or 200_000)
        cpu.execute(*quantum(90_000))
        assert len(calls) == 1
        assert cpu.stats.masked_overflows >= 2

    def test_nmi_count(self):
        cpu = make_cpu(period=90_000)
        cpu.nmi.register(lambda f: 100)
        cpu.execute(*quantum(270_000))
        assert cpu.stats.nmi_count == 3


class TestIdle:
    def test_idle_advances_clock_without_samples(self):
        cpu = make_cpu(period=3_000)
        fired = []
        cpu.nmi.register(lambda f: fired.append(f) or 0)
        cpu.idle(1_000_000)
        assert cpu.cycle == 1_000_000
        assert not fired
        assert cpu.stats.user_cycles == 0

    def test_negative_idle_rejected(self):
        cpu = make_cpu()
        with pytest.raises(HardwareError):
            cpu.idle(-1)


class TestQuantumValidation:
    def test_negative_pc_rejected(self):
        cpu = make_cpu()
        with pytest.raises(HardwareError):
            cpu.execute(-1, 4, EventCounts())
        assert cpu.stats.quanta == 0

    def test_negative_code_len_rejected(self):
        cpu = make_cpu()
        with pytest.raises(HardwareError):
            cpu.execute(0, -4, EventCounts())
        assert cpu.stats.quanta == 0


class TestSamplingRateProperty:
    @given(
        period=st.sampled_from([45_000, 90_000, 450_000]),
        n_quanta=st.integers(min_value=10, max_value=60),
        qsize=st.integers(min_value=500, max_value=5_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sample_count_matches_period(self, period, n_quanta, qsize):
        """Property: over any quantum stream, sample count equals
        total_cycles // period when the handler is free (no overhead
        feedback)."""
        cpu = make_cpu(period=period)
        frames = []
        cpu.nmi.register(lambda f: frames.append(f) or 0)
        for i in range(n_quanta):
            cpu.execute(*quantum(qsize, pc=0x1000 * (i + 1)))
        assert len(frames) == (n_quanta * qsize) // period

    @given(
        period=st.sampled_from([45_000, 90_000]),
        total=st.integers(min_value=100_000, max_value=400_000),
        cuts=st.lists(st.integers(min_value=1, max_value=399_999),
                      max_size=8, unique=True),
    )
    @settings(max_examples=30, deadline=None)
    def test_quantum_partitioning_invariance(self, period, total, cuts):
        """Splitting the same work into arbitrary quanta never changes the
        number of samples taken or the final counter state — the property
        that makes the engine's step granularity a free parameter."""
        def run(sizes):
            cpu = make_cpu(period=period)
            frames = []
            cpu.nmi.register(lambda f: frames.append(f) or 0)
            for s in sizes:
                cpu.execute(*quantum(s))
            remaining = cpu.counters.counters[0].remaining
            return len(frames), remaining

        one_shot = run([total])
        points = sorted(c for c in cuts if c < total)
        pieces, prev = [], 0
        for p in points:
            pieces.append(p - prev)
            prev = p
        pieces.append(total - prev)
        split = run([p for p in pieces if p > 0])
        assert split == one_shot

    @given(
        period=st.sampled_from([45_000, 90_000]),
        sizes=st.lists(st.integers(min_value=100, max_value=200_000),
                       min_size=1, max_size=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_interpolated_pcs_stay_in_quantum_range(self, period, sizes):
        cpu = make_cpu(period=period)
        frames = []
        cpu.nmi.register(lambda f: frames.append(f) or 0)
        spans = []
        pc = 0x100000
        for s in sizes:
            spans.append((pc, pc + 0x800))
            cpu.execute(*quantum(s, pc=pc, code_len=0x800))
            pc += 0x10000
        for f in frames:
            assert any(lo <= f.pc < hi for lo, hi in spans)

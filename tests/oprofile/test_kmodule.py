"""Unit tests for the OProfile kernel module: counter programming, NMI
sample capture, buffer bounds."""

from dataclasses import replace

import pytest

from repro.errors import ProfilerError
from repro.hardware.cpu import CPU
from repro.hardware.events import EventCounts
from repro.hardware.interrupts import CpuMode
from repro.oprofile.kmodule import (
    NMI_HANDLER_CYCLES,
    OprofileKernelModule,
    SampleBuffer,
)
from repro.oprofile.opcontrol import EventSpec, OprofileConfig
from repro.profiling.model import RawSample


def config(period=90_000, capacity=8192):
    return OprofileConfig(
        events=(EventSpec("GLOBAL_POWER_EVENTS", period),),
        buffer_capacity=capacity,
    )


def raw(pc=1):
    return RawSample(
        pc=pc, event_name="E", task_id=1, kernel_mode=False, cycle=0
    )


class TestSampleBuffer:
    def test_append_and_drain(self):
        b = SampleBuffer(capacity=4)
        assert b.append(raw(1))
        assert b.append(raw(2))
        out = b.drain()
        assert [s.pc for s in out] == [1, 2]
        assert len(b) == 0
        assert b.total_captured == 2

    def test_overflow_drops_and_counts(self):
        b = SampleBuffer(capacity=2)
        b.append(raw(1))
        b.append(raw(2))
        assert not b.append(raw(3))
        assert b.lost == 1
        assert len(b) == 2

    def test_drain_resets_room(self):
        b = SampleBuffer(capacity=1)
        b.append(raw(1))
        b.drain()
        assert b.append(raw(2))

    def test_captured_by_event_counts_stored_samples_only(self):
        b = SampleBuffer(capacity=2)
        b.append(raw(1))
        b.append(replace(raw(2), event_name="F"))
        assert not b.append(raw(3))
        b.drain()
        assert b.captured_by_event == {"E": 1, "F": 1}


class TestKernelModule:
    def test_setup_programs_counters_and_registers_nmi(self):
        cpu = CPU()
        km = OprofileKernelModule(config())
        km.setup(cpu)
        assert len(cpu.counters) == 1
        assert cpu.nmi.armed
        assert km.active

    def test_double_setup_rejected(self):
        cpu = CPU()
        km = OprofileKernelModule(config())
        km.setup(cpu)
        with pytest.raises(ProfilerError):
            km.setup(cpu)

    def test_shutdown_detaches(self):
        cpu = CPU()
        km = OprofileKernelModule(config())
        km.setup(cpu)
        km.shutdown()
        assert not cpu.nmi.armed
        assert len(cpu.counters) == 0
        km.shutdown()  # idempotent

    def test_samples_captured_on_overflow(self):
        cpu = CPU()
        km = OprofileKernelModule(config(period=90_000))
        km.setup(cpu)
        cpu.current_task_id = 77
        cpu.execute(0x1000, 0x100, EventCounts(cycles=180_000))
        samples = km.buffer.drain()
        assert len(samples) == 2
        s = samples[0]
        assert s.task_id == 77
        assert s.event_name == "GLOBAL_POWER_EVENTS"
        assert not s.kernel_mode
        assert s.epoch == -1  # no VM registered an epoch source

    def test_kernel_mode_flag(self):
        cpu = CPU()
        km = OprofileKernelModule(config(period=90_000))
        km.setup(cpu)
        cpu.execute(
            0xC010_0000, 0x100, EventCounts(cycles=90_000), CpuMode.KERNEL
        )
        assert km.buffer.drain()[0].kernel_mode

    def test_handler_cost_is_charged(self):
        cpu = CPU()
        km = OprofileKernelModule(config(period=90_000))
        km.setup(cpu)
        cpu.execute(0x1000, 0x100, EventCounts(cycles=90_000))
        assert cpu.stats.nmi_handler_cycles == NMI_HANDLER_CYCLES
        assert cpu.cycle == 90_000 + NMI_HANDLER_CYCLES

    def test_epoch_source_stamps_samples(self):
        cpu = CPU()
        km = OprofileKernelModule(config(period=90_000))
        km.epoch_source = lambda: 42
        km.setup(cpu)
        cpu.execute(0x1000, 0x100, EventCounts(cycles=90_000))
        assert km.buffer.drain()[0].epoch == 42

    def test_buffer_overflow_under_sampling_storm(self):
        cpu = CPU()
        km = OprofileKernelModule(config(period=90_000, capacity=64))
        km.setup(cpu)
        cpu.execute(0x1000, 0x100, EventCounts(cycles=90_000 * 100))
        assert len(km.buffer) == 64
        # 100 overflows from the quantum itself plus a few from handler
        # cycles feeding back into the counter.
        assert 36 <= km.buffer.lost <= 40

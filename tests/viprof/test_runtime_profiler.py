"""Unit tests for the VIProf runtime profiler (extended daemon)."""

import pytest

from repro.errors import ProfilerError
from repro.oprofile.kmodule import OprofileKernelModule
from repro.oprofile.opcontrol import EventSpec, OprofileConfig
from repro.os.binary import standard_libraries
from repro.os.kernel import Kernel
from repro.os.loader import ProgramLoader
from repro.profiling.model import RawSample
from repro.viprof.runtime_profiler import ViprofRuntimeProfiler
from tests.oprofile.test_daemon import classify as stock_classify


def classify(rp, sample):
    """Per-sample reference: the heap-bounds check, then stock."""
    if rp.jit_fast_path and not sample.kernel_mode:
        reg = rp.registration_for(sample.task_id)
        if reg is not None and reg.covers(sample.pc):
            return rp.JIT
    return stock_classify(rp, sample)


def config():
    return OprofileConfig(events=(EventSpec("GLOBAL_POWER_EVENTS", 90_000),))


@pytest.fixture
def rig(tmp_path):
    kernel = Kernel()
    proc = kernel.spawn("JikesRVM")
    loader = ProgramLoader(proc.address_space)
    libc_vma = loader.load_library(standard_libraries()[0])
    heap_vma = loader.map_anonymous(0x200000)
    km = OprofileKernelModule(config())
    rp = ViprofRuntimeProfiler(kernel, km, config(), tmp_path / "samples")
    return kernel, proc, libc_vma, heap_vma, km, rp


def raw(pc, task_id, kernel_mode=False):
    return RawSample(
        pc=pc, event_name="GLOBAL_POWER_EVENTS", task_id=task_id,
        kernel_mode=kernel_mode, cycle=0,
    )


class TestRegistration:
    def test_register_and_lookup(self, rig):
        _, proc, _, heap_vma, _, rp = rig
        reg = rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        assert rp.registration_for(proc.pid) is reg
        assert reg.covers(heap_vma.start)
        assert not reg.covers(heap_vma.end)

    def test_bad_bounds_rejected(self, rig):
        _, proc, *_, rp = rig
        with pytest.raises(ProfilerError, match="bad heap bounds"):
            rp.register_vm(proc.pid, (100, 100))

    def test_double_registration_rejected(self, rig):
        _, proc, _, heap_vma, _, rp = rig
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        with pytest.raises(ProfilerError, match="already registered"):
            rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))

    def test_epoch_source_installed_on_kmodule(self, rig):
        _, proc, _, heap_vma, km, rp = rig
        src = lambda: 7
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end), src)
        assert km.epoch_source is src


class TestClassification:
    def test_heap_sample_classified_jit(self, rig):
        _, proc, _, heap_vma, _, rp = rig
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        assert rp.classify_chunk(
            [raw(heap_vma.start + 0x40, proc.pid)]
        ) == [rp.JIT]

    def test_unregistered_task_still_anon(self, rig):
        kernel, proc, _, heap_vma, _, rp = rig
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        other = kernel.spawn("other")
        assert rp.classify_chunk(
            [raw(heap_vma.start + 0x40, other.pid)]
        ) == [rp.ANON]

    def test_outside_heap_falls_through(self, rig):
        _, proc, libc_vma, heap_vma, _, rp = rig
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        assert rp.classify_chunk(
            [raw(libc_vma.start + 0x1000, proc.pid)]
        ) == [rp.FILE]

    def test_kernel_sample_never_jit(self, rig):
        kernel, proc, _, heap_vma, _, rp = rig
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        s = raw(kernel.kernel_pc("schedule"), proc.pid, kernel_mode=True)
        assert rp.classify_chunk([s]) == [rp.KERNEL]

    def test_jit_path_cheaper_than_anon_path(self, rig):
        """The paper's replacement claim: classifying a JIT sample must cost
        less than the anonymous-logging path it replaces."""
        *_, rp = rig
        jit_cost = rp.costs.jit_classify
        anon_cost = rp.costs.resolve + rp.costs.anon_extra
        assert jit_cost < anon_cost

    def test_jit_samples_counted_in_stats(self, rig):
        _, proc, _, heap_vma, km, rp = rig
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        rp.start()
        km.buffer.append(raw(heap_vma.start + 0x80, proc.pid))
        rp.wakeup()
        assert rp.stats.jit_samples == 1
        assert rp.stats.anon_samples == 0
        rp.stop()

    def _mixed_stream(self, rig, n=30):
        kernel, proc, libc_vma, heap_vma, *_ = rig
        other = kernel.spawn("other")
        kpc = kernel.kernel_pc("schedule")
        out = []
        for i in range(n):
            which = i % 5
            if which == 0:
                out.append(raw(heap_vma.start + 8 * i, proc.pid))
            elif which == 1:
                out.append(raw(libc_vma.start + 16 * i, proc.pid))
            elif which == 2:
                out.append(raw(kpc, proc.pid, kernel_mode=True))
            elif which == 3:
                out.append(raw(heap_vma.start + 8 * i, other.pid))
            else:
                out.append(raw(heap_vma.start - 1, proc.pid))
        return out

    def test_classify_chunk_agrees_with_classify(self, rig):
        _, proc, _, heap_vma, _, rp = rig
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        stream = self._mixed_stream(rig)
        assert rp.classify_chunk(stream) == [
            classify(rp, s) for s in stream
        ]

    def test_classify_chunk_without_fast_path_delegates(self, rig, tmp_path):
        kernel, proc, _, heap_vma, km, _ = rig
        rp = ViprofRuntimeProfiler(
            kernel, km, config(), tmp_path / "ablate", jit_fast_path=False
        )
        rp.register_vm(proc.pid, (heap_vma.start, heap_vma.end))
        stream = self._mixed_stream(rig)
        cats = rp.classify_chunk(stream)
        assert rp.JIT not in cats
        assert cats == [classify(rp, s) for s in stream]

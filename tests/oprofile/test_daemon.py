"""Unit tests for the OProfile daemon: classification, costs, sample files.

The daemon drains in chunks; :func:`classify` and :func:`drain_per_sample`
are the sample-at-a-time reference it must agree with, byte for byte and
cycle for cycle.
"""

import pytest

from repro.errors import ProfilerError
from repro.oprofile.daemon import (
    DaemonWork,
    OprofileDaemon,
    build_daemon_image,
)
from repro.oprofile.kmodule import OprofileKernelModule
from repro.oprofile.opcontrol import EventSpec, OprofileConfig
from repro.os.address_space import VmaKind
from repro.os.binary import standard_libraries
from repro.os.kernel import Kernel
from repro.os.loader import ProgramLoader
from repro.profiling.model import RawSample
from repro.profiling.samplefile import SampleFileReader


def classify(daemon, sample):
    """Stock per-sample classification: kernel / file-backed / anonymous."""
    if sample.kernel_mode or daemon.kernel.is_kernel_address(sample.pc):
        return daemon.KERNEL
    proc = daemon.kernel.process(sample.task_id)
    if proc is None:
        return daemon.ANON
    vma = proc.address_space.resolve(sample.pc)
    if vma is None or vma.kind is not VmaKind.FILE:
        return daemon.ANON
    return daemon.FILE


def drain_per_sample(daemon):
    """One wakeup, a sample at a time: drain everything, then classify,
    charge and append each sample on its own."""
    work = DaemonWork()
    work.charge("opd_main_loop", daemon.costs.wakeup)
    daemon.stats.wakeups += 1
    samples = daemon.kmodule.buffer.drain()
    for s in samples:
        daemon._log_cost_run(classify(daemon, s), 1, work)
        daemon._writers[s.event_name].write(s)
        work.charge("opd_sfile_write", daemon.costs.write_per_sample)
        daemon.stats.samples_logged += 1
    if samples:
        work.charge("opd_sfile_write", daemon.costs.flush)
    daemon.work_cycles += work.total
    return work


def config():
    return OprofileConfig(
        events=(
            EventSpec("GLOBAL_POWER_EVENTS", 90_000),
            EventSpec("BSQ_CACHE_REFERENCE", 1_000),
        )
    )


@pytest.fixture
def machine(tmp_path):
    kernel = Kernel()
    proc = kernel.spawn("java")
    loader = ProgramLoader(proc.address_space)
    libc_vma = loader.load_library(standard_libraries()[0])
    heap_vma = loader.map_anonymous(0x100000)
    km = OprofileKernelModule(config())
    daemon = OprofileDaemon(kernel, km, config(), tmp_path / "samples")
    return kernel, proc, libc_vma, heap_vma, km, daemon


def raw(pc, task_id, event="GLOBAL_POWER_EVENTS", kernel_mode=False):
    return RawSample(
        pc=pc, event_name=event, task_id=task_id,
        kernel_mode=kernel_mode, cycle=0,
    )


class TestClassify:
    def test_kernel_sample(self, machine):
        kernel, proc, *_, daemon = machine
        s = raw(kernel.kernel_pc("schedule"), proc.pid, kernel_mode=True)
        assert daemon.classify_chunk([s]) == [daemon.KERNEL]

    def test_kernel_address_without_flag(self, machine):
        kernel, proc, *_, daemon = machine
        s = raw(kernel.kernel_pc("schedule"), proc.pid)
        assert daemon.classify_chunk([s]) == [daemon.KERNEL]

    def test_file_backed_sample(self, machine):
        _, proc, libc_vma, _, _, daemon = machine
        assert daemon.classify_chunk(
            [raw(libc_vma.start + 0x1000, proc.pid)]
        ) == [daemon.FILE]

    def test_anon_sample(self, machine):
        _, proc, _, heap_vma, _, daemon = machine
        assert daemon.classify_chunk(
            [raw(heap_vma.start + 64, proc.pid)]
        ) == [daemon.ANON]

    def test_unknown_task_is_anon(self, machine):
        *_, daemon = machine
        assert daemon.classify_chunk([raw(0x1000, 999999)]) == [daemon.ANON]

    def test_unmapped_pc_is_anon(self, machine):
        _, proc, *_, daemon = machine
        assert daemon.classify_chunk([raw(0x300, proc.pid)]) == [daemon.ANON]


class TestWakeup:
    def test_requires_start(self, machine):
        *_, daemon = machine
        with pytest.raises(ProfilerError, match="not started"):
            daemon.wakeup()

    def test_empty_buffer_costs_only_wakeup(self, machine):
        *_, daemon = machine
        daemon.start()
        work = daemon.wakeup()
        assert work.total == daemon.costs.wakeup
        daemon.stop()

    def test_processing_writes_samples_and_charges_costs(self, machine):
        kernel, proc, libc_vma, heap_vma, km, daemon = machine
        daemon.start()
        km.buffer.append(raw(libc_vma.start + 0x1000, proc.pid))
        km.buffer.append(raw(heap_vma.start + 8, proc.pid))
        km.buffer.append(
            raw(kernel.kernel_pc("schedule"), proc.pid, kernel_mode=True)
        )
        work = daemon.wakeup()
        assert daemon.stats.file_samples == 1
        assert daemon.stats.anon_samples == 1
        assert daemon.stats.kernel_samples == 1
        assert daemon.stats.samples_logged == 3
        c = daemon.costs
        expected = (
            c.wakeup + c.resolve * 2 + c.anon_extra + c.kernel_sample
            + c.write_per_sample * 3 + c.flush
        )
        assert work.total == expected
        daemon.stop()

    def test_anon_path_costs_more_than_file_path(self, machine):
        *_, daemon = machine
        assert daemon.costs.anon_extra > 0
        assert (
            daemon.costs.resolve + daemon.costs.anon_extra
            > daemon.costs.resolve
        )

    def test_samples_routed_to_event_files(self, machine, tmp_path):
        _, proc, libc_vma, _, km, daemon = machine
        daemon.start()
        km.buffer.append(raw(libc_vma.start, proc.pid, "GLOBAL_POWER_EVENTS"))
        km.buffer.append(raw(libc_vma.start, proc.pid, "BSQ_CACHE_REFERENCE"))
        daemon.wakeup()
        daemon.stop()
        time_file = SampleFileReader(daemon.sample_file("GLOBAL_POWER_EVENTS"))
        miss_file = SampleFileReader(daemon.sample_file("BSQ_CACHE_REFERENCE"))
        assert len(time_file) == 1
        assert len(miss_file) == 1
        assert miss_file.event_name == "BSQ_CACHE_REFERENCE"

    def test_unconfigured_event_rejected(self, machine):
        _, proc, libc_vma, _, km, daemon = machine
        daemon.start()
        km.buffer.append(raw(libc_vma.start, proc.pid, event="INSTR_RETIRED"))
        with pytest.raises(ProfilerError, match="unconfigured"):
            daemon.wakeup()

    def test_stop_performs_final_drain(self, machine):
        _, proc, libc_vma, _, km, daemon = machine
        daemon.start()
        km.buffer.append(raw(libc_vma.start, proc.pid))
        daemon.stop()
        assert daemon.stats.samples_logged == 1

    def test_double_start_rejected(self, machine):
        *_, daemon = machine
        daemon.start()
        with pytest.raises(ProfilerError, match="already started"):
            daemon.start()


class TestBatchedDrain:
    def _mixed_stream(self, machine, n=40):
        kernel, proc, libc_vma, heap_vma, *_ = machine
        kpc = kernel.kernel_pc("schedule")
        out = []
        for i in range(n):
            if i % 4 == 0:
                out.append(raw(kpc, proc.pid, kernel_mode=True))
            elif i % 4 == 1:
                out.append(raw(libc_vma.start + 16 * i, proc.pid))
            elif i % 4 == 2:
                out.append(raw(heap_vma.start + 8 * i, proc.pid))
            else:
                out.append(
                    raw(libc_vma.start + i, proc.pid, "BSQ_CACHE_REFERENCE")
                )
        return out

    def test_classify_chunk_agrees_with_classify(self, machine):
        *_, daemon = machine
        stream = self._mixed_stream(machine)
        assert daemon.classify_chunk(stream) == [
            classify(daemon, s) for s in stream
        ]

    def test_batched_drain_matches_sequential(self, machine, tmp_path):
        kernel, *_ , km, daemon = machine
        stream = self._mixed_stream(machine)
        results = []
        for batch in (False, True):
            km2 = OprofileKernelModule(config())
            d = OprofileDaemon(
                kernel, km2, config(), tmp_path / f"batch-{batch}"
            )
            for s in stream:
                km2.buffer.append(s)
            d.start()
            work = d.wakeup() if batch else drain_per_sample(d)
            d.stop()
            files = {
                ev: d.sample_file(ev).read_bytes()
                for ev in ("GLOBAL_POWER_EVENTS", "BSQ_CACHE_REFERENCE")
            }
            results.append((work.total, list(work.by_symbol.items()),
                            d.stats, files))
        assert results[0] == results[1]

    def test_chunked_drain_crosses_chunk_boundary(self, machine, tmp_path):
        """A buffer larger than one drain chunk is fully drained in one
        wakeup, with per-sample costs intact."""
        import repro.oprofile.daemon as daemon_mod
        kernel, proc, libc_vma, *_ = machine
        km2 = OprofileKernelModule(
            OprofileConfig(
                events=(EventSpec("GLOBAL_POWER_EVENTS", 90_000),),
                buffer_capacity=64,
            )
        )
        d = OprofileDaemon(kernel, km2, km2.config, tmp_path / "chunked")
        old_chunk = daemon_mod.DRAIN_CHUNK_RECORDS
        daemon_mod.DRAIN_CHUNK_RECORDS = 8
        try:
            for i in range(20):
                km2.buffer.append(raw(libc_vma.start + i, proc.pid))
            d.start()
            work = d.wakeup()
            d.stop()
        finally:
            daemon_mod.DRAIN_CHUNK_RECORDS = old_chunk
        assert len(km2.buffer) == 0
        assert d.stats.samples_logged == 20
        c = d.costs
        assert work.total == (
            c.wakeup + c.resolve * 20 + c.write_per_sample * 20 + c.flush
        )


class TestDaemonImage:
    def test_symbols_present(self):
        img = build_daemon_image()
        for sym in ("opd_main_loop", "opd_anon_mapping_log",
                    "opd_jit_heap_check", "opd_sfile_write"):
            img.find_symbol(sym)

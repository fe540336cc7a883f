"""Unit tests for stock opreport post-processing."""

import pytest

from repro.errors import ProfilerError
from repro.oprofile.daemon import OprofileDaemon
from repro.oprofile.kmodule import OprofileKernelModule
from repro.oprofile.opcontrol import EventSpec, OprofileConfig
from repro.oprofile.opreport import UNKNOWN_IMAGE, OpReport
from repro.os.binary import NO_SYMBOLS, standard_libraries
from repro.os.kernel import Kernel
from repro.os.loader import ProgramLoader
from repro.profiling.model import RawSample


def config():
    return OprofileConfig(
        events=(
            EventSpec("GLOBAL_POWER_EVENTS", 90_000),
            EventSpec("BSQ_CACHE_REFERENCE", 1_000),
        )
    )


@pytest.fixture
def profiled_machine(tmp_path):
    kernel = Kernel()
    proc = kernel.spawn("java")
    loader = ProgramLoader(proc.address_space)
    libc_vma = loader.load_library(standard_libraries()[0])
    heap_vma = loader.map_anonymous(0x100000)
    km = OprofileKernelModule(config())
    daemon = OprofileDaemon(kernel, km, config(), tmp_path / "samples")
    daemon.start()
    libc = libc_vma.image
    memset_off = libc.find_symbol("memset").offset

    def add(pc, event="GLOBAL_POWER_EVENTS", kernel_mode=False, task=proc.pid):
        km.buffer.append(
            RawSample(
                pc=pc, event_name=event, task_id=task,
                kernel_mode=kernel_mode, cycle=0,
            )
        )

    # 3 memset time samples, 1 anon time sample, 1 kernel time sample,
    # 2 memset miss samples, 1 unknown-task sample.
    for _ in range(3):
        add(libc_vma.start + memset_off + 8)
    add(heap_vma.start + 0x40)
    add(kernel.kernel_pc("do_page_fault"), kernel_mode=True)
    for _ in range(2):
        add(libc_vma.start + memset_off, event="BSQ_CACHE_REFERENCE")
    add(0x500, task=424242)
    daemon.wakeup()
    daemon.stop()
    return kernel, proc, heap_vma, tmp_path / "samples"


class TestOpReport:
    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ProfilerError):
            OpReport(Kernel(), tmp_path / "nope")

    def test_empty_dir_rejected(self, tmp_path):
        d = tmp_path / "samples"
        d.mkdir()
        with pytest.raises(ProfilerError, match="no sample files"):
            OpReport(Kernel(), d).read_samples()

    def test_event_order_time_first(self, profiled_machine):
        kernel, _, _, sample_dir = profiled_machine
        rep = OpReport(kernel, sample_dir)
        assert rep.event_names()[0] == "GLOBAL_POWER_EVENTS"

    def test_symbol_resolution(self, profiled_machine):
        kernel, proc, heap_vma, sample_dir = profiled_machine
        report = OpReport(kernel, sample_dir).generate()
        memset = report.row_for("libc-2.3.2.so", "memset")
        assert memset.count("GLOBAL_POWER_EVENTS") == 3
        assert memset.count("BSQ_CACHE_REFERENCE") == 2

    def test_anon_samples_stay_anonymous(self, profiled_machine):
        kernel, _, heap_vma, sample_dir = profiled_machine
        report = OpReport(kernel, sample_dir).generate()
        anon_rows = [r for r in report.rows if r.image.startswith("anon (range:")]
        assert len(anon_rows) == 1
        assert anon_rows[0].symbol == NO_SYMBOLS
        assert f"{heap_vma.start:#x}" in anon_rows[0].image

    def test_kernel_samples_resolve_to_vmlinux(self, profiled_machine):
        kernel, _, _, sample_dir = profiled_machine
        report = OpReport(kernel, sample_dir).generate()
        assert report.row_for("vmlinux", "do_page_fault") is not None

    def test_unknown_task_reported_unknown(self, profiled_machine):
        kernel, _, _, sample_dir = profiled_machine
        report = OpReport(kernel, sample_dir).generate()
        assert report.row_for(UNKNOWN_IMAGE, NO_SYMBOLS) is not None

    def test_pid_filter_keeps_kernel_samples(self, profiled_machine):
        kernel, proc, _, sample_dir = profiled_machine
        report = OpReport(kernel, sample_dir).generate(pid=proc.pid)
        assert report.row_for("vmlinux", "do_page_fault") is not None
        assert report.row_for(UNKNOWN_IMAGE, NO_SYMBOLS) is None

    def test_totals_match_sample_counts(self, profiled_machine):
        kernel, _, _, sample_dir = profiled_machine
        report = OpReport(kernel, sample_dir).generate()
        assert report.totals["GLOBAL_POWER_EVENTS"] == 6
        assert report.totals["BSQ_CACHE_REFERENCE"] == 2

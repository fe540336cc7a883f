"""Tests for the resolver chain: stage order, per-stage hit/miss
counters and their invariants, stage-specific detail, and the
chain-composition helpers."""

import pytest

from repro.errors import ProfilerError
from repro.jvm.bootimage import RVM_MAP_IMAGE_LABEL, build_boot_image
from repro.jvm.machine import JIT_APP_IMAGE_LABEL
from repro.os.binary import NO_SYMBOLS, standard_libraries
from repro.os.kernel import Kernel
from repro.os.loader import ProgramLoader
from repro.pipeline import (
    UNKNOWN_IMAGE,
    UNRESOLVED_JIT,
    PipelineSample,
    ResolverChain,
    opreport_chain,
    viprof_chain,
)
from repro.pipeline.stages import (
    FallbackStage,
    JitEpochStage,
    KernelSymbolStage,
)
from repro.profiling.model import RawSample
from repro.system.api import viprof_profile
from repro.viprof.codemap import CodeMapIndex, CodeMapRecord, CodeMapWriter
from repro.viprof.runtime_profiler import VmRegistration
from repro.workloads import by_name

EV = "GLOBAL_POWER_EVENTS"


def sample(pc, task=1, kernel_mode=False, epoch=-1):
    return PipelineSample(
        raw=RawSample(
            pc=pc, event_name=EV, task_id=task,
            kernel_mode=kernel_mode, cycle=0, epoch=epoch,
        )
    )


@pytest.fixture
def rig(tmp_path):
    kernel = Kernel()
    proc = kernel.spawn("JikesRVM")
    loader = ProgramLoader(proc.address_space)
    libc_vma = loader.load_library(standard_libraries()[0])
    boot = build_boot_image()
    boot_vma = loader.map_file_segment(boot.image, at=0x6000_0000)
    heap_vma = loader.map_anonymous(0x200000, at=boot_vma.end + 0x1000)

    map_dir = tmp_path / "maps"
    writer = CodeMapWriter(map_dir)
    a0 = heap_vma.start + 0x100
    writer.write(0, [CodeMapRecord(a0, 0x200, "O0", "app.Main.hot")])

    chain = viprof_chain(
        kernel,
        CodeMapIndex.load_dir(map_dir),
        boot.rvm_map,
        (VmRegistration(proc.pid, heap_vma.start, heap_vma.end),),
    )
    return {
        "kernel": kernel, "proc": proc, "libc": libc_vma, "boot": boot,
        "boot_vma": boot_vma, "heap": heap_vma, "chain": chain, "a0": a0,
    }


class TestStageOrder:
    def test_kernel_claims_before_jit(self, rig):
        r = rig["chain"].resolve(
            sample(rig["kernel"].kernel_pc("do_page_fault"), kernel_mode=True)
        )
        assert (r.image, r.symbol) == ("vmlinux", "do_page_fault")
        st = {s.name: s for s in rig["chain"].stats()}
        assert st["kernel"].hits == 1
        assert st["jit-epoch"].offered == 0

    def test_jit_stage_claims_heap_sample(self, rig):
        r = rig["chain"].resolve(
            sample(rig["a0"] + 0x10, task=rig["proc"].pid, epoch=0)
        )
        assert (r.image, r.symbol) == (JIT_APP_IMAGE_LABEL, "app.Main.hot")
        assert r.offset == 0x10

    def test_jit_stage_is_terminal_for_heap_misses(self, rig):
        r = rig["chain"].resolve(
            sample(
                rig["heap"].start + 0x100000, task=rig["proc"].pid, epoch=0
            )
        )
        assert (r.image, r.symbol) == (JIT_APP_IMAGE_LABEL, UNRESOLVED_JIT)

    def test_other_tasks_heap_address_falls_past_jit(self, rig):
        other = rig["kernel"].spawn("other")
        r = rig["chain"].resolve(sample(rig["a0"], task=other.pid))
        assert r.image == UNKNOWN_IMAGE
        assert not rig["chain"].stage_outcomes("jit-epoch")

    def test_boot_image_resolves_via_rvm_map(self, rig):
        entry = rig["boot"].rvm_map.find(
            "com.ibm.jikesrvm.VM_MainThread.run"
        )
        r = rig["chain"].resolve(
            sample(
                rig["boot_vma"].start + entry.offset + 4,
                task=rig["proc"].pid,
            )
        )
        assert r.image == RVM_MAP_IMAGE_LABEL
        assert r.symbol == "com.ibm.jikesrvm.VM_MainThread.run"

    def test_task_vma_resolves_libc(self, rig):
        libc = rig["libc"].image
        off = libc.find_symbol("memset").offset
        r = rig["chain"].resolve(
            sample(rig["libc"].start + off, task=rig["proc"].pid)
        )
        assert (r.image, r.symbol) == ("libc-2.3.2.so", "memset")

    def test_unmapped_pc_falls_back_to_unknown(self, rig):
        r = rig["chain"].resolve(sample(0x1, task=rig["proc"].pid))
        assert (r.image, r.symbol) == (UNKNOWN_IMAGE, NO_SYMBOLS)
        st = {s.name: s for s in rig["chain"].stats()}
        assert st["unresolved"].hits == 1


class TestCounters:
    def test_misses_count_fall_throughs(self, rig):
        libc = rig["libc"].image
        off = libc.find_symbol("memset").offset
        rig["chain"].resolve(
            sample(rig["libc"].start + off, task=rig["proc"].pid)
        )
        st = {s.name: s for s in rig["chain"].stats()}
        assert st["kernel"].misses == 1
        assert st["jit-epoch"].misses == 1
        assert st["boot-image"].misses == 1
        assert st["task-vma"].hits == 1

    def test_stats_dict_includes_jit_detail(self, rig):
        rig["chain"].resolve(
            sample(rig["a0"] + 4, task=rig["proc"].pid, epoch=0)
        )
        doc = rig["chain"].stats_dict()
        jit = next(
            e for e in doc["stages"] if e["stage"] == "jit-epoch"
        )
        assert jit["hits"] == 1
        assert jit["detail"]["resolved_in_own_epoch"] == 1
        assert jit["detail"]["resolution_rate"] == 1.0

    def test_resolve_stream_accepts_raw_samples(self, rig):
        raws = [
            RawSample(
                pc=rig["kernel"].kernel_pc("schedule"), event_name=EV,
                task_id=1, kernel_mode=True, cycle=0,
            )
        ] * 3
        out = list(rig["chain"].resolve_stream(iter(raws)))
        assert len(out) == 3
        assert {s.name: s for s in rig["chain"].stats()}["kernel"].hits == 3


class TestChainConstruction:
    def test_duplicate_stage_names_rejected(self, rig):
        k = rig["kernel"]
        with pytest.raises(ProfilerError, match="duplicate stage names"):
            ResolverChain([KernelSymbolStage(k), KernelSymbolStage(k)])

    def test_unknown_stage_lookup_rejected(self, rig):
        with pytest.raises(ProfilerError, match="no stage named"):
            rig["chain"].stage("nope")

    def test_opreport_chain_has_no_jit_stage(self, rig):
        chain = opreport_chain(rig["kernel"])
        assert [s.name for s in chain.stages] == ["kernel", "task-vma"]
        assert not any(
            isinstance(s, JitEpochStage) for s in chain.stages
        )


class TestStageStatsInvariants:
    def samples(self, n=3):
        return [
            PipelineSample(raw=RawSample(
                pc=0x1000 + i, event_name="EV", task_id=1,
                kernel_mode=False, cycle=i,
            ))
            for i in range(n)
        ]

    def test_terminal_stage_with_misses_fails_check(self):
        # A fallback that declined a sample would leave the terminal
        # stage with misses; the chain refuses it instead of counting.
        class Declining(FallbackStage):
            def resolve(self, sample):
                return None

        chain = ResolverChain([], fallback=Declining())
        with pytest.raises(ProfilerError, match="declined"):
            chain.resolve(self.samples(1)[0])

    def test_terminal_stage_offered_equals_hits(self):
        chain = ResolverChain([])
        list(chain.resolve_stream(self.samples()))
        (st,) = chain.stats()
        assert st.terminal
        assert st.offered == st.hits == 3

    def test_merge_rejects_mismatched_stages(self):
        worker = ResolverChain([])
        list(worker.resolve_stream(self.samples()))
        with pytest.raises(ProfilerError, match="diverged"):
            opreport_chain(Kernel()).absorb_stats(worker.export_stats())


class TestChainCounters:
    """Counters over a real session: a chain counts every sample it
    resolves, pass after pass."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        return viprof_profile(
            by_name("fop"), period=90_000, time_scale=0.12, seed=11,
            session_dir=tmp_path_factory.mktemp("chain-counters"),
        )

    def test_warm_chain_replays_counters_exactly(self, run):
        post = run.viprof_report().post
        first = post.chain.stats_dict()
        # Second pass over the same stream: every counter doubles,
        # detail included.
        for resolved in post.resolved_samples():
            pass
        second = post.chain.stats_dict()
        assert second["total_samples"] == 2 * first["total_samples"]
        for a, b in zip(first["stages"], second["stages"]):
            assert (b["hits"], b["misses"]) == (2 * a["hits"], 2 * a["misses"])
        jit_first, jit_second = (
            next(e for e in d["stages"] if e["stage"] == "jit-epoch")["detail"]
            for d in (first, second)
        )
        for key in (
            "jit_samples", "resolved_in_own_epoch",
            "resolved_in_earlier_epoch", "unresolved",
        ):
            assert jit_second[key] == 2 * jit_first[key]

    def test_total_samples_is_stream_length(self, run):
        vr = run.viprof_report()
        assert vr.post.chain.total_samples == len(vr.post.read_samples())

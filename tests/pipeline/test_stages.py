"""Tests for the resolver chain: stage order, per-stage hit/miss
counters and their invariants, stage-specific detail, and the
chain-composition helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressSpaceError, ProfilerError
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
    xen_chain,
)
from repro.pipeline.stages import (
    FallbackStage,
    JitEpochStage,
    KernelSymbolStage,
)
from repro.profiling.model import RawSample
from repro.system.api import viprof_profile
from repro.viprof.codemap import (
    CodeMap,
    CodeMapIndex,
    CodeMapRecord,
    CodeMapWriter,
)
from repro.viprof.runtime_profiler import VmRegistration
from repro.workloads import by_name
from repro.xen.hypervisor import XEN_BASE, Hypervisor
from tests.pipeline.oracle import Oracle

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
            def resolve_run(self, bucket, pcs, counts):
                return [None] * len(pcs)

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


# ----------------------------------------------------------------------
# Bucket runs against the per-sample oracle
# ----------------------------------------------------------------------


def _bucket_world():
    """One guest's resolution inputs, built so every stage has range
    edges to cut at: a JIT task mapping libc (symbol gaps), stripped
    libxul, libm at a nonzero image offset, the boot image, an anonymous
    heap wider than its registration, and a stack, with unmapped gaps
    between them; a second task with libc alone; code maps for epochs
    0, 1 and 3, and the same maps with epoch 2 quarantined."""
    kernel = Kernel()
    jvm = kernel.spawn("JikesRVM")
    other = kernel.spawn("other")
    libs = {image.name: image for image in standard_libraries()}
    loader = ProgramLoader(jvm.address_space)
    loader.load_library(libs["libc-2.3.2.so"])
    loader.load_library(libs["libxul.so.0d"])
    loader.map_file_segment(
        libs["libm-2.3.2.so"], at=0x5800_0000, image_offset=0x1000
    )
    boot = build_boot_image()
    boot_vma = loader.map_file_segment(boot.image, at=0x6000_0000)
    heap = loader.map_anonymous(0x20_0000, at=boot_vma.end + 0x1000)
    loader.map_stack()
    ProgramLoader(other.address_space).load_library(libs["libc-2.3.2.so"])
    reg = VmRegistration(jvm.pid, heap.start + 0x1000, heap.end - 0x1000)

    base = reg.heap_low + 0x100
    maps = {
        0: [CodeMapRecord(base, 0x100, "O0", "m.a"),
            CodeMapRecord(base + 0x200, 0x80, "O0", "m.b")],
        1: [CodeMapRecord(base + 0x100, 0x100, "O1", "m.c"),
            CodeMapRecord(base + 0x200, 0x40, "O1", "m.d")],
        3: [CodeMapRecord(base + 0x400, 0x100, "O2", "m.e")],
    }
    records = [r for recs in maps.values() for r in recs]
    clean = CodeMapIndex({e: CodeMap(e, recs) for e, recs in maps.items()})
    salvaged = CodeMapIndex(
        {e: CodeMap(e, recs) for e, recs in maps.items()}, quarantined=[2]
    )

    # Range edges the stages cut at, then the lookup edges inside them.
    base = kernel.layout.kernel_base
    cuts = {
        base - 1, base, base + 1, XEN_BASE - 1, XEN_BASE, XEN_BASE + 1,
        reg.heap_low - 1, reg.heap_low, reg.heap_low + 1,
        reg.heap_high - 1, reg.heap_high, reg.heap_high + 1, 0x1,
    }
    for vma in jvm.address_space:
        cuts |= {vma.start - 1, vma.start, vma.end - 1, vma.end}
    lookups = set()
    for vma in jvm.address_space:
        if vma.image is not None:
            for sym in vma.image.symbols:
                at = vma.start + sym.offset - vma.image_offset
                lookups |= {at - 1, at, at + sym.size - 1, at + sym.size}
    for entry in boot.rvm_map.entries[:8]:
        at = boot_vma.start + entry.offset
        lookups |= {at, at + entry.size - 1, at + entry.size}
    for rec in records:
        lookups |= {rec.address - 1, rec.address, rec.end - 1, rec.end}
    for sym in kernel.image.symbols:
        at = base + sym.offset
        lookups |= {at - 1, at, at + sym.size - 1, at + sym.size}
    return {
        "kernel": kernel, "rvm_map": boot.rvm_map, "reg": reg,
        "clean": clean, "salvaged": salvaged,
        "tasks": (jvm.pid, jvm.pid, other.pid, 999),
        "cuts": sorted(cuts),
        "lookups": sorted(lookups),
    }


def _bucket_chains():
    """Every chain shape, by name: the Xen chains dispatch domain 0 to
    a clean strict guest and domain 1 to a salvaged degraded one."""
    a, b = _bucket_world(), _bucket_world()

    def guest(world, codemaps, strict):
        return viprof_chain(
            world["kernel"], world[codemaps], world["rvm_map"],
            (world["reg"],), strict=strict,
        )

    hv = Hypervisor()
    return a, {
        "opreport": opreport_chain(a["kernel"]),
        "viprof": guest(a, "clean", True),
        "viprof-ablation": viprof_chain(
            a["kernel"], a["clean"], a["rvm_map"], (a["reg"],),
            backward=False,
        ),
        "viprof-strict-salvaged": guest(a, "salvaged", True),
        "viprof-degraded": guest(a, "salvaged", False),
        "xen": xen_chain(
            hv, {0: guest(a, "clean", True), 1: guest(b, "salvaged", False)}
        ),
        "xen-strict-salvaged": xen_chain(
            hv, {0: guest(a, "clean", True), 1: guest(b, "salvaged", True)}
        ),
    }


_WORLD, _CHAINS = _bucket_chains()


@st.composite
def bucket_groups(draw):
    """A chain name and a ``{key: count}`` table over it: a few buckets
    of epochs from before the first map to past the last, each a run of
    PCs at range edges, at lookup edges or anywhere; kernel-mode buckets
    on kernel PCs, now and then with a user PC, and (for Xen chains) the
    occasional unknown domain."""
    name = draw(st.sampled_from(sorted(_CHAINS)))
    base = _WORLD["kernel"].layout.kernel_base
    cuts = st.sampled_from(_WORLD["cuts"])
    pcs = st.one_of(
        cuts,
        cuts,
        st.sampled_from(_WORLD["lookups"]),
        st.integers(1, 0xFFFF_FFFF),
        st.integers(_WORLD["reg"].heap_low, _WORLD["reg"].heap_low + 0x600),
    )
    kernel_cuts = st.sampled_from([pc for pc in _WORLD["cuts"] if pc >= base])
    kernel_pcs = st.one_of(
        kernel_cuts,
        kernel_cuts,
        st.sampled_from([pc for pc in _WORLD["lookups"] if pc >= base]),
        st.integers(base, 0xFFFF_FFFF),
    )
    domains = [0, 0, 1, 1, 2] if name.startswith("xen") else [None]
    groups = {}
    for _ in range(draw(st.integers(1, 4))):
        kernel_mode = draw(st.booleans())
        run = draw(st.lists(kernel_pcs if kernel_mode else pcs,
                            min_size=1, max_size=12))
        if kernel_mode and draw(st.integers(0, 9)) == 0:
            run.append(draw(pcs))
        bucket = (
            draw(st.sampled_from([-1, 0, 1, 2, 3, 4])),
            kernel_mode,
            draw(st.sampled_from(_WORLD["tasks"])),
            draw(st.sampled_from(domains)),
        )
        for pc in run:
            groups[(pc, *bucket)] = draw(st.integers(1, 3))
    return name, groups


class TestBucketRuns:
    """``resolve_groups``, bucket by bucket through each stage's
    ``resolve_run``, against the per-sample oracle: every key's entry,
    the whole ``stats_dict()``, and each error path — a kernel-mode
    user PC, an unknown domain, a strict blocked walk — raising what the
    per-sample walk raises first."""

    @settings(deadline=None)
    @given(bucket_groups())
    def test_resolve_groups_equals_oracle(self, drawn):
        name, groups = drawn
        chain = _CHAINS[name]
        chain.reset_stats()
        # The oracle takes the samples in the chain's bucket order, so
        # its first error is the one the bucket walk meets first.
        order = sorted(groups, key=lambda k: (
            k[1], k[2], k[3], -1 if k[4] is None else k[4], k[0]
        ))
        oracle = Oracle(chain)
        expected, raised = {}, None
        try:
            for key in order:
                s = PipelineSample(
                    raw=RawSample(
                        pc=key[0], event_name=EV, task_id=key[3],
                        kernel_mode=key[2], cycle=0, epoch=key[1],
                    ),
                    domain_id=key[4],
                )
                for _ in range(groups[key]):
                    r = oracle.resolve(s)
                expected[key] = (r.image, r.symbol, r.offset)
        except (AddressSpaceError, ProfilerError) as e:
            raised = e
        if raised is not None:
            with pytest.raises(type(raised)) as info:
                chain.resolve_groups(groups)
            assert str(info.value) == str(raised)
            return
        entries = chain.resolve_groups(groups)
        assert {
            k: (e.image, e.symbol, e.offset) for k, e in entries.items()
        } == expected
        assert chain.stats_dict() == oracle.stats_dict()

    @pytest.mark.parametrize(
        "name", ["opreport", "viprof", "viprof-ablation", "viprof-degraded",
                 "xen"],
    )
    def test_every_edge_equals_oracle(self, name):
        # Every range and lookup edge, in every bucket that cannot raise:
        # each task, each epoch, user and (on kernel PCs) kernel mode,
        # each known domain.
        chain = _CHAINS[name]
        chain.reset_stats()
        base = _WORLD["kernel"].layout.kernel_base
        groups = {
            (pc, epoch, kernel_mode, task, domain): 1
            for pc in _WORLD["cuts"] + _WORLD["lookups"]
            for epoch in (-1, 0, 1, 2, 3, 4)
            for kernel_mode in ((False, True) if pc >= base else (False,))
            for task in _WORLD["tasks"]
            for domain in ((0, 1) if name == "xen" else (None,))
        }
        entries = chain.resolve_groups(groups)
        oracle = Oracle(chain)
        for key in groups:
            r = oracle.resolve(PipelineSample(
                raw=RawSample(
                    pc=key[0], event_name=EV, task_id=key[3],
                    kernel_mode=key[2], cycle=0, epoch=key[1],
                ),
                domain_id=key[4],
            ))
            assert (r.image, r.symbol, r.offset) == entries[key][:3], key
        assert chain.stats_dict() == oracle.stats_dict()

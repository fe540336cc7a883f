"""Integration-y unit tests for the JikesVM facade: compilation flow, step
streams, GC orchestration, hook firing.  The tests read ``JikesVM.run()``
chunk by chunk, through the per-chunk view ``vm_steps`` of the reference
executor (``tests/system/reference_engine.py``)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.jvm.bootimage import build_boot_image
from repro.jvm.compiler import CodeBody, CompilerTier
from repro.jvm.heap import Heap
from repro.jvm.machine import (
    AGENT_IMAGE_NAME,
    JIT_APP_IMAGE_LABEL,
    JikesVM,
    MAX_STEP_CYCLES,
    StepKind,
    VmHooks,
    VmRun,
    VmRunStats,
)
from repro.profiling.model import Layer, TruthLabel
from tests.conftest import make_tiny_workload
from tests.system.reference_engine import run_steps, vm_steps

BOOT_BASE = 0x6000_0000


def fake_resolver(image, symbol):
    # Deterministic fake addresses per (image, symbol).
    h = abs(hash((image, symbol))) % 0x10000
    return 0x4000_0000 + h * 0x100, 0x200


def make_vm(workload=None, hooks=None, nursery=64 * 1024):
    wl = workload or make_tiny_workload(nursery_bytes=nursery)
    heap = Heap(
        nursery_base=BOOT_BASE + 0x80_0000,
        nursery_size=wl.nursery_bytes,
        mature_base=BOOT_BASE + 0x100_0000,
        mature_size=wl.mature_bytes,
    )
    return JikesVM(
        boot=build_boot_image(),
        boot_base=BOOT_BASE,
        heap=heap,
        workload=wl,
        native_resolver=fake_resolver,
        seed=5,
        hooks=hooks,
    )


def take_steps(vm, n):
    return list(itertools.islice(vm_steps(vm.run()), n))


class RecordingHooks(VmHooks):
    def __init__(self):
        self.startup = []
        self.compiles = []
        self.moves = []
        self.pre_gcs = []
        self.post_gcs = []
        self.exits = []

    def on_startup(self, heap_bounds):
        self.startup.append(heap_bounds)
        return 11

    def on_compile(self, body):
        self.compiles.append(body)
        return 13

    def on_code_move(self, body, old_address):
        self.moves.append((body, old_address))
        return 3

    def pre_gc(self, closing_epoch):
        self.pre_gcs.append(closing_epoch)
        return 17

    def post_gc(self, new_epoch):
        self.post_gcs.append(new_epoch)
        return 7

    def on_exit(self, final_epoch):
        self.exits.append(final_epoch)
        return 19


class TestStepStream:
    def test_stream_starts_with_startup_classloading(self):
        vm = make_vm()
        steps = take_steps(vm, 5)
        assert steps[0].kind is StepKind.VM
        assert steps[0].truth.layer is Layer.VM

    def test_app_steps_point_into_code_bodies(self):
        """Checked during iteration: a yielded APP step's PC must lie in a
        then-live code body (bodies move later, so post-hoc checks would be
        stale)."""
        vm = make_vm()
        checked = 0
        for step in itertools.islice(vm_steps(vm.run()), 300):
            if step.kind is StepKind.APP:
                body = next(
                    b for b in vm.code_bodies() if b.contains(step.pc)
                )
                assert step.code_len == body.size
                assert step.truth.image == JIT_APP_IMAGE_LABEL
                checked += 1
        assert checked > 0

    def test_step_cycles_bounded(self):
        vm = make_vm()
        for step in take_steps(vm, 500):
            assert 0 < step.cycles <= 2000

    def test_methods_get_compiled_on_first_invocation(self):
        vm = make_vm()
        take_steps(vm, 200)
        assert vm.stats.compilations > 0
        assert vm.body_for(0) is not None

    def test_recompilation_reaches_opt_tiers(self):
        wl = make_tiny_workload(n=2, burst=(20, 40))
        vm = make_vm(workload=wl)
        tiers_seen: dict[int, set[CompilerTier]] = {}
        for _ in itertools.islice(vm_steps(vm.run()), 4000):
            for i in range(2):
                b = vm.body_for(i)
                if b is not None:
                    tiers_seen.setdefault(i, set()).add(b.tier)
        assert any(
            t.is_opt for tiers in tiers_seen.values() for t in tiers
        ), "no method ever reached an optimizing tier"
        assert vm.stats.opt_compilations > 0

    def test_gc_triggered_by_allocation(self):
        vm = make_vm(nursery=32 * 1024)
        take_steps(vm, 2000)
        assert vm.collector.stats.collections > 0
        assert vm.epoch == vm.collector.stats.collections

    def test_gc_emits_memset_native_step(self):
        vm = make_vm(nursery=32 * 1024)
        symbols = {
            s.truth.symbol for s in take_steps(vm, 2000)
            if s.kind is StepKind.NATIVE
        }
        assert "memset" in symbols

    def test_deterministic_streams(self):
        s1 = [
            (s.pc, s.cycles, s.truth.symbol)
            for s in take_steps(make_vm(), 400)
        ]
        s2 = [
            (s.pc, s.cycles, s.truth.symbol)
            for s in take_steps(make_vm(), 400)
        ]
        assert s1 == s2

    def test_vm_steps_inside_boot_image(self):
        vm = make_vm()
        boot_end = BOOT_BASE + vm.boot.image.size
        for step in take_steps(vm, 400):
            if step.kind is StepKind.VM:
                assert BOOT_BASE <= step.pc < boot_end


class TestOnStackReplacement:
    def test_long_invocation_methods_recompile_via_osr(self):
        from repro.jvm.machine import OSR_INVOCATION_CYCLES
        from tests.conftest import make_tiny_methods

        methods = make_tiny_methods(2)
        for m in methods:
            m.cycles_per_invocation = OSR_INVOCATION_CYCLES + 2_000
        from repro.workloads.base import Workload

        wl = Workload(
            name="osr", base_time_s=0.05, methods=methods,
            nursery_bytes=64 * 1024, mature_bytes=2 * 1024 * 1024,
            burst=(20, 40), seed=13,
        )
        vm = make_vm(workload=wl)
        take_steps(vm, 4000)
        assert vm.stats.osr_compilations > 0

    def test_osr_emits_figure1_frames(self):
        from repro.jvm.machine import OSR_INVOCATION_CYCLES
        from tests.conftest import make_tiny_methods
        from repro.workloads.base import Workload

        methods = make_tiny_methods(2)
        for m in methods:
            m.cycles_per_invocation = OSR_INVOCATION_CYCLES + 2_000
        wl = Workload(
            name="osr2", base_time_s=0.05, methods=methods,
            nursery_bytes=64 * 1024, mature_bytes=2 * 1024 * 1024,
            burst=(20, 40), seed=13,
        )
        vm = make_vm(workload=wl)
        symbols = {s.truth.symbol for s in take_steps(vm, 4000)}
        assert any("getOsrPrologueLength" in s for s in symbols)
        assert any("finalizeOsrSpecialization" in s for s in symbols)

    def test_short_methods_never_osr(self):
        vm = make_vm()  # tiny methods: 1500 cycles/invocation
        take_steps(vm, 3000)
        assert vm.stats.osr_compilations == 0


class TestHooks:
    def test_startup_registers_heap_bounds(self):
        hooks = RecordingHooks()
        vm = make_vm(hooks=hooks)
        take_steps(vm, 3)
        assert hooks.startup == [vm.heap.bounds]

    def test_compile_hook_sees_every_compilation(self):
        hooks = RecordingHooks()
        vm = make_vm(hooks=hooks)
        take_steps(vm, 500)
        assert len(hooks.compiles) == vm.stats.compilations
        assert all(isinstance(b, CodeBody) for b in hooks.compiles)

    def test_gc_hooks_fire_in_order(self):
        hooks = RecordingHooks()
        vm = make_vm(hooks=hooks, nursery=32 * 1024)
        take_steps(vm, 2000)
        assert hooks.pre_gcs, "no GC happened"
        assert hooks.pre_gcs[0] == 0
        assert hooks.post_gcs[0] == 1
        # pre_gc(epoch e) then post_gc(e+1), pairwise.
        for pre, post in zip(hooks.pre_gcs, hooks.post_gcs):
            assert post == pre + 1

    def test_move_hook_gets_old_address(self):
        hooks = RecordingHooks()
        vm = make_vm(hooks=hooks, nursery=32 * 1024)
        take_steps(vm, 2000)
        assert hooks.moves
        for body, old in hooks.moves:
            assert old != body.address or body.moves > 1

    def test_agent_steps_emitted_for_hook_costs(self):
        hooks = RecordingHooks()
        vm = make_vm(hooks=hooks, nursery=32 * 1024)
        agent_steps = [
            s for s in take_steps(vm, 2000) if s.kind is StepKind.AGENT
        ]
        assert agent_steps
        assert all(s.truth.image == AGENT_IMAGE_NAME for s in agent_steps)

    def test_finish_fires_exit_hook_once(self):
        hooks = RecordingHooks()
        vm = make_vm(hooks=hooks)
        take_steps(vm, 100)
        runs = vm.finish()
        assert hooks.exits == [vm.epoch]
        assert runs and runs[0].kind is StepKind.AGENT
        assert vm.finish() == []

    def test_default_hooks_cost_nothing(self):
        vm = make_vm()  # default VmHooks
        assert not any(
            s.kind is StepKind.AGENT for s in take_steps(vm, 1500)
        )


def chunked(cycles, accesses, cpi):
    """The per-chunk split a run's chunks must reproduce: at most
    MAX_STEP_CYCLES each, accesses in proportion to the cycles left."""
    while cycles > 0:
        c = min(cycles, MAX_STEP_CYCLES)
        a = accesses * c // cycles
        cycles -= c
        accesses -= a
        yield c, max(1, int(c / cpi)), a


def make_run(cycles, accesses=0, cpi=1.6, stats=None, kind=StepKind.VM):
    return VmRun(
        kind, 0x1000, 0x200, cycles, accesses, None,
        TruthLabel(Layer.VM, "RVM.map", "m"), None, cpi,
        stats if stats is not None else VmRunStats(), "vm_cycles",
    )


class TestVmRun:
    @given(
        cycles=st.integers(1, 20_000),
        accesses=st.integers(0, 12_000),
        cpi=st.floats(1.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_chunks_match_per_chunk_split(self, cycles, accesses, cpi):
        run = make_run(cycles, accesses, cpi)
        chunks = list(run)
        assert chunks == list(chunked(cycles, accesses, cpi))
        assert len(chunks) == run.n_chunks
        assert sum(c for c, _, _ in chunks) == cycles
        assert sum(a for _, _, a in chunks) == accesses

    @given(cycles=st.integers(1, 20_000), within=st.integers(-5, 25_000))
    def test_chunks_within_counts_chunks_starting_inside(self, cycles, within):
        sizes = [c for c, _, _ in chunked(cycles, 0, 1.6)]
        starts = list(itertools.accumulate(sizes, initial=0))[:-1]
        assert make_run(cycles).chunks_within(within) == sum(
            start < within for start in starts
        )

    def test_iteration_resumes_and_stats_count_taken_chunks(self):
        stats = VmRunStats()
        run = make_run(5 * MAX_STEP_CYCLES + 123, 900, stats=stats)
        first = list(itertools.islice(run, 2))
        assert stats.steps == 2
        assert stats.vm_cycles == 2 * MAX_STEP_CYCLES
        rest = list(run)
        assert first + rest == list(chunked(5 * MAX_STEP_CYCLES + 123, 900, 1.6))
        assert stats.steps == 6
        assert stats.vm_cycles == 5 * MAX_STEP_CYCLES + 123
        assert list(run) == []

    def test_steps_view_shares_the_run(self):
        run = make_run(3 * MAX_STEP_CYCLES, 30)
        next(iter(run))
        steps = list(run_steps(run))
        assert [s.cycles for s in steps] == [MAX_STEP_CYCLES] * 2
        assert all(s.pc == run.pc and s.truth is run.truth for s in steps)

    def test_vm_steps_draws_next_run_only_when_current_is_used_up(self):
        drawn = []

        def runs():
            for cycles in (3 * MAX_STEP_CYCLES, 10):
                drawn.append(cycles)
                yield make_run(cycles)

        steps = vm_steps(runs())
        for _ in range(3):
            next(steps)
        assert drawn == [3 * MAX_STEP_CYCLES]
        assert next(steps).cycles == 10
        assert drawn == [3 * MAX_STEP_CYCLES, 10]

"""The JikesVM facade: executes a workload as a stream of activity runs.

:class:`JikesVM` owns the heap, the collector, the JIT compilers and the
adaptive system, and exposes the **agent hooks** VIProf attaches to (the
paper's §3: instructions added to the compile/recompile methods, a flag set
in the GC move path, a map write just before each collection).

Execution is a generator of :class:`VmRun` records, one per *activity*:
a stretch of execution at one code site (a method burst, a GC phase, an
agent hook).  A run says *where the program counter dwells* (a concrete
address range), *how much* it costs (cycles/instructions/data accesses),
and — for scoring only — the simulator's ground-truth attribution.  The
engines' executor (:class:`repro.system.engine.VmExecutor`) takes each
run as chunks of at most ``MAX_STEP_CYCLES`` cycles, runs them through
the cache model and the CPU as hardware quanta, and lets the armed
profiler take samples.

Determinism: all internal choices flow from the seed given at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from random import Random
from typing import Callable, Iterator, Protocol

from repro.errors import JvmError
from repro.hardware.memory import WorkingSet
from repro.jvm.adaptive import AdaptiveSystem
from repro.jvm.bootimage import BootImage, RvmMapEntry, VmActivity, RVM_MAP_IMAGE_LABEL
from repro.jvm.compiler import CodeBody, CompilerTier, JitCompiler
from repro.jvm.gc import CopyingCollector
from repro.jvm.heap import Heap
from repro.jvm.model import JavaMethod
from repro.profiling.model import Layer, TruthLabel

__all__ = [
    "StepKind",
    "VmRun",
    "VmHooks",
    "WorkloadProgram",
    "JikesVM",
    "JIT_APP_IMAGE_LABEL",
    "AGENT_IMAGE_NAME",
]

#: Image label VIProf gives to resolved JIT samples (paper's Figure 1).
JIT_APP_IMAGE_LABEL = "JIT.App"

#: The VM-agent shared library (mapped only when VIProf is attached).
AGENT_IMAGE_NAME = "viprof_agent.so"

# --- cycle-cost calibration -------------------------------------------------
#: longest chunk an activity is taken in, in cycles
MAX_STEP_CYCLES = 2000
#: GC fixed cost plus per-byte trace/copy and zeroing costs
GC_BASE_CYCLES = 2500
GC_SCAN_CYCLES_PER_BYTE = 0.09
GC_ZERO_CYCLES_PER_BYTE = 0.022
#: fraction of application cycles spent in VM runtime glue (yieldpoints,
#: write barriers, scheduler checks)
RUNTIME_GLUE_FRACTION = 0.012
#: startup class-loading cost per method
STARTUP_CYCLES_PER_METHOD = 2200
#: a recompilation of a method whose single invocation exceeds this many
#: cycles is performed as an on-stack replacement: the running activation
#: is specialized and transferred to the new body mid-execution
OSR_INVOCATION_CYCLES = 4_200
#: extra VM work for OSR specialization (prologue analysis, state mapping)
OSR_EXTRA_FRACTION = 0.3


class StepKind(Enum):
    APP = "app"  # JIT-compiled application code
    VM = "vm"  # boot-image (VM-internal) code
    NATIVE = "native"  # shared-library code
    AGENT = "agent"  # VIProf VM-agent library work


class VmHooks:
    """Agent attachment points.  Every hook returns its cost in cycles;
    the default implementation is a no-op costing nothing (profiling off or
    stock OProfile, which has no VM agent)."""

    def on_startup(self, heap_bounds: tuple[int, int]) -> int:
        return 0

    def on_compile(self, body: CodeBody) -> int:
        return 0

    def on_code_move(self, body: CodeBody, old_address: int) -> int:
        return 0

    def pre_gc(self, closing_epoch: int) -> int:
        return 0

    def post_gc(self, new_epoch: int) -> int:
        return 0

    def on_exit(self, final_epoch: int) -> int:
        return 0


class WorkloadProgram(Protocol):
    """What the machine needs from a workload (see
    :class:`repro.workloads.base.Workload`)."""

    methods: list[JavaMethod]
    survival_rate: float
    javalib_fraction: float
    native_fraction: float
    native_mix: tuple[tuple[str, str, float], ...]

    def schedule(self, rng: Random) -> Iterator[tuple[int, int]]:
        """Yield ``(method_index, invocation_burst)`` forever."""
        ...


#: (image_name, symbol_name) -> (absolute address, size)
NativeResolver = Callable[[str, str], tuple[int, int]]


@dataclass
class VmRunStats:
    """Counters exposed for tests and reports."""

    invocations: int = 0
    compilations: int = 0
    opt_compilations: int = 0
    osr_compilations: int = 0
    #: total machine-code bytes of live (non-obsolete) bodies — the code
    #: footprint the ITLB model sees
    live_code_bytes: int = 0
    app_cycles: int = 0
    vm_cycles: int = 0
    native_cycles: int = 0
    agent_cycles: int = 0
    steps: int = 0


class VmRun:
    """One VM activity: ``cycles`` of execution at one code site.

    Every chunk of an activity shares the swept pc range, the truth label,
    the caller, the working set and the CPI.  Data accesses spread over
    the chunks in proportion to their cycles; every chunk but the last is
    ``MAX_STEP_CYCLES`` long.

    Iterating a run *takes* its chunks as ``(cycles, instructions,
    accesses)`` triples.  The iteration belongs to the run, so a second
    loop resumes where the first stopped: the engine can leave a run at a
    timer tick and come back to it.  The VM's ``steps`` and per-kind cycle
    statistics count each chunk as it is taken, so a run that the budget
    ends part-way counts exactly the chunks that executed.
    """

    __slots__ = (
        "kind", "pc", "code_len", "cycles", "accesses", "working_set",
        "truth", "caller", "n_chunks", "_chunks",
    )

    def __init__(
        self,
        kind: StepKind,
        pc: int,
        code_len: int,
        cycles: int,
        accesses: int,
        working_set: WorkingSet | None,
        truth: TruthLabel,
        caller: TruthLabel | None,
        cpi: float,
        stats: VmRunStats,
        stat: str,
    ) -> None:
        self.kind = kind
        self.pc = pc
        self.code_len = code_len
        self.cycles = cycles
        self.accesses = accesses
        self.working_set = working_set
        self.truth = truth
        self.caller = caller
        self.n_chunks = -(-cycles // MAX_STEP_CYCLES)
        self._chunks = self._take(cpi, stats, stat)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return self._chunks

    def chunks_within(self, cycles: int) -> int:
        """How many of the run's chunks start before ``cycles`` of it have
        executed (all of them once ``cycles`` reaches its last chunk)."""
        if cycles <= 0:
            return 0
        return min(self.n_chunks, -(-cycles // MAX_STEP_CYCLES))

    def _take(
        self, cpi: float, stats: VmRunStats, stat: str
    ) -> Iterator[tuple[int, int, int]]:
        cycles = self.cycles
        accesses = self.accesses
        full_instructions = max(1, int(MAX_STEP_CYCLES / cpi))
        while cycles > MAX_STEP_CYCLES:
            a = accesses * MAX_STEP_CYCLES // cycles
            cycles -= MAX_STEP_CYCLES
            accesses -= a
            stats.steps += 1
            setattr(stats, stat, getattr(stats, stat) + MAX_STEP_CYCLES)
            yield MAX_STEP_CYCLES, full_instructions, a
        if cycles > 0:
            # The last chunk takes what is left, accesses included.
            stats.steps += 1
            setattr(stats, stat, getattr(stats, stat) + cycles)
            yield cycles, max(1, int(cycles / cpi)), accesses


class JikesVM:
    """A Jikes-RVM-like virtual machine bound to one workload."""

    def __init__(
        self,
        boot: BootImage,
        boot_base: int,
        heap: Heap,
        workload: WorkloadProgram,
        native_resolver: NativeResolver,
        seed: int = 1234,
        hooks: VmHooks | None = None,
        collector: CopyingCollector | None = None,
        adaptive: AdaptiveSystem | None = None,
    ) -> None:
        if not workload.methods:
            raise JvmError("workload has no methods")
        self.boot = boot
        self.boot_base = boot_base
        self.heap = heap
        self.workload = workload
        self.hooks = hooks if hooks is not None else VmHooks()
        self.collector = collector if collector is not None else CopyingCollector(heap)
        self.adaptive = adaptive if adaptive is not None else AdaptiveSystem()
        self.adaptive.bind_method_names(workload.methods)
        self.compiler = JitCompiler()
        self.stats = VmRunStats()
        self._resolve_native = native_resolver
        self._rng = Random(seed)
        self._body_of: dict[int, CodeBody] = {}
        self._all_bodies: list[CodeBody] = []
        self._finished = False
        # Built once per VM: truth labels by (image, symbol) (an image
        # belongs to one layer), and resolved native (address, size).
        self._truths: dict[tuple[str, str], TruthLabel] = {}
        self._native_sites: dict[tuple[str, str], tuple[int, int]] = {}
        # Call-stack witness for call-graph sampling: the VM thread root,
        # and the most recent application frame (the caller of VM/native
        # work triggered from application code).
        self._root_truth = TruthLabel(
            Layer.VM, RVM_MAP_IMAGE_LABEL, "com.ibm.jikesrvm.VM_MainThread.run"
        )
        self._last_app_truth: TruthLabel | None = None
        self._name_to_idx = {
            m.full_name: i for i, m in enumerate(workload.methods)
        }
        # The OSR specialization trio (Figure 1's VM_NormalMethod frames).
        self._osr_entries = boot.entries_for(VmActivity.CLASSLOADER)[:3]
        # Data regions for VM-internal activity.
        lo, hi = heap.bounds
        self._gc_ws = WorkingSet(
            base=lo, size=hi - lo, locality=0.5, hot_fraction=0.05,
            seed=seed ^ 0x6C,
        )
        # Nursery zeroing streams through freshly-evacuated lines; the
        # BSQ_CACHE_REFERENCE unit mask counts *read* misses, so memset's
        # write traffic registers only via its read-for-ownership tail.
        self._zero_ws = WorkingSet(
            base=lo, size=max(4096, heap.nursery.size * 3),
            locality=0.6, hot_fraction=0.2, seed=seed ^ 0x6D,
        )
        self._vm_ws = WorkingSet(
            base=boot_base, size=boot.image.size, locality=0.9,
            hot_fraction=0.08, seed=seed ^ 0x71,
        )
        # Cumulative weights of every weighted draw, computed once.  Boot
        # image entries weigh toward the front of each group so the
        # Figure-1 symbols dominate their categories, with a long tail
        # over the rest.
        self._entry_cum_weights = {
            activity: list(accumulate(1.0 / (i + 1) for i in range(len(group))))
            for activity, group in boot.groups.items()
        }
        self._native_cum_weights = list(
            accumulate(weight for *_, weight in workload.native_mix)
        )

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """GC epoch currently executing (the agent reads this through its
        registration interface; the runtime profiler reads it per sample)."""
        return self.collector.epoch

    def code_bodies(self) -> tuple[CodeBody, ...]:
        return tuple(self._all_bodies)

    def body_for(self, method_index: int) -> CodeBody | None:
        return self._body_of.get(method_index)

    def run(self) -> Iterator[VmRun]:
        """Execute the workload forever, one run per activity (the engine
        stops at its budget).  The generator advances past an activity
        only when the next run is asked for."""
        yield from self._startup()
        for midx, burst in self.workload.schedule(self._rng):
            yield from self._invoke(midx, burst)

    def finish(self) -> list[VmRun]:
        """Fire the exit hook (final code-map flush) and return its runs.
        Idempotent."""
        if self._finished:
            return []
        self._finished = True
        cost = self.hooks.on_exit(self.collector.epoch)
        return list(self._agent_run("agent_write_code_map", cost))

    # ------------------------------------------------------------------
    # internal machinery
    # ------------------------------------------------------------------

    def _startup(self) -> Iterator[VmRun]:
        cost = self.hooks.on_startup(self.heap.bounds)
        yield from self._agent_run("agent_register_heap", cost)
        load_cycles = STARTUP_CYCLES_PER_METHOD * max(4, len(self.workload.methods) // 4)
        yield from self._vm_run(VmActivity.CLASSLOADER, load_cycles)
        yield from self._vm_run(VmActivity.RUNTIME, load_cycles // 6)

    def _invoke(self, midx: int, burst: int) -> Iterator[VmRun]:
        m = self.workload.methods[midx]
        tier = self.adaptive.record_invocations(midx, burst)
        osr_from: CodeBody | None = None
        if tier is not None:
            old = self._body_of.get(midx)
            if (
                old is not None
                and m.cycles_per_invocation * old.tier.cpi_factor
                > OSR_INVOCATION_CYCLES
            ):
                # Long-running activation: recompile via on-stack
                # replacement — part of the burst executes in the old body
                # before the transfer (the Figure-1 OSR frames come from
                # the specialization work).
                osr_from = old
                yield from self._osr_burst_prefix(osr_from, m, burst)
            yield from self._compile(midx, m, tier, osr=osr_from is not None)
        body = self._body_of[midx]
        self.stats.invocations += burst

        # Nursery allocation for the burst; collections interleave.
        to_alloc = m.alloc_bytes_per_invocation * burst
        while to_alloc > 0:
            chunk = min(to_alloc, max(1, self.heap.nursery.size // 4))
            if self.heap.alloc_data(chunk):
                to_alloc -= chunk
            else:
                yield from self._collect()

        total = int(burst * m.cycles_per_invocation * body.tier.cpi_factor)
        if osr_from is not None:
            # The OSR prefix already executed 40 % of the burst's work in
            # the old body; the new body finishes the remainder.
            total = int(total * 0.6)
        total = max(1, total)
        glue = int(total * RUNTIME_GLUE_FRACTION)
        javalib = int(total * self.workload.javalib_fraction)
        native = int(total * self.workload.native_fraction)
        app = max(1, total - glue - javalib - native)
        accesses = m.accesses_per_invocation * burst

        yield from self._app_run(body, app, accesses)
        if glue:
            yield from self._vm_run(VmActivity.RUNTIME, glue)
        if javalib:
            yield from self._vm_run(VmActivity.JAVALIB, javalib)
        if native:
            yield from self._native_mix_run(native)

    def _osr_burst_prefix(
        self, old_body: CodeBody, m: JavaMethod, burst: int
    ) -> Iterator[VmRun]:
        """Execute the pre-transfer part of an OSR'd burst in the old body,
        plus the OSR bookkeeping frames (the exact methods visible in the
        paper's Figure 1)."""
        prefix = max(
            1,
            int(0.4 * burst * m.cycles_per_invocation * old_body.tier.cpi_factor),
        )
        accesses = int(0.4 * m.accesses_per_invocation * burst)
        yield from self._app_run(old_body, prefix, accesses)

    def _compile(
        self, midx: int, m: JavaMethod, tier: CompilerTier, osr: bool = False
    ) -> Iterator[VmRun]:
        job = self.compiler.plan(m, tier)
        self.stats.compilations += 1
        if osr:
            self.stats.osr_compilations += 1
            # Specialization work dwells in the OSR trio of
            # VM_NormalMethod methods (classloader group, entries 0-2).
            osr_cycles = int(job.cycles * OSR_EXTRA_FRACTION)
            for entry in self._osr_entries:
                yield from self._entry_run(entry, max(1, osr_cycles // 3))
        if tier.is_opt:
            self.stats.opt_compilations += 1
            yield from self._vm_run(VmActivity.CLASSLOADER, int(job.cycles * 0.15))
            yield from self._vm_run(VmActivity.OPT_COMPILER, int(job.cycles * 0.85))
        else:
            yield from self._vm_run(VmActivity.CLASSLOADER, int(job.cycles * 0.35))
            yield from self._vm_run(VmActivity.COMPILER, int(job.cycles * 0.65))

        if job.code_size > self.heap.nursery.size:
            # A body that can never fit the nursery goes straight to mature.
            addr = self.heap.alloc_code_mature(job.code_size)
        else:
            addr = self.heap.alloc_code_nursery(job.code_size)
            while addr is None:
                yield from self._collect()
                addr = self.heap.alloc_code_nursery(job.code_size)
        body = self.compiler.make_body(job, addr, self.collector.epoch)

        old = self._body_of.get(midx)
        if old is not None:
            old.obsolete = True
            self.stats.live_code_bytes -= old.size
        self.stats.live_code_bytes += body.size
        self._body_of[midx] = body
        self._all_bodies.append(body)
        self.adaptive.note_compiled(midx, tier)

        cost = self.hooks.on_compile(body)
        yield from self._agent_run("agent_log_compile", cost)

    def _collect(self) -> Iterator[VmRun]:
        closing = self.collector.epoch
        pre = self.hooks.pre_gc(closing)
        yield from self._agent_run("agent_write_code_map", pre)

        move_cost = 0

        def on_move(body: CodeBody, old_addr: int) -> None:
            nonlocal move_cost
            move_cost += self.hooks.on_code_move(body, old_addr)

        live_data = int(self.heap.nursery_data_bytes * self.workload.survival_rate)
        work = self.collector.collect(self._all_bodies, live_data, on_move)
        self._all_bodies = [b for b in self._all_bodies if not b.obsolete]

        scan_cycles = GC_BASE_CYCLES + int(work.scanned_bytes * GC_SCAN_CYCLES_PER_BYTE)
        yield from self._vm_run(
            VmActivity.GC, scan_cycles,
            working_set=self._gc_ws, accesses=work.scanned_bytes // 24,
        )
        zero_cycles = max(1, int(work.zeroed_bytes * GC_ZERO_CYCLES_PER_BYTE))
        yield from self._native_run(
            "libc-2.3.2.so", "memset", zero_cycles,
            working_set=self._zero_ws, accesses=work.zeroed_bytes // 256,
        )
        # GC-move flags cost almost nothing each but are charged faithfully.
        yield from self._agent_run("agent_flag_moves", move_cost)
        post = self.hooks.post_gc(self.collector.epoch)
        yield from self._agent_run("agent_process_flags", post)

    # -- run constructors -------------------------------------------------

    def _app_run(
        self, body: CodeBody, cycles: int, accesses: int
    ) -> Iterator[VmRun]:
        truth = self._truth(
            Layer.APP_JIT, JIT_APP_IMAGE_LABEL, body.method.full_name
        )
        ws = body.method.working_set
        cpi = 1.1 + 0.5 * body.tier.cpi_factor
        caller = self._last_app_truth if self._caller_for(body) else self._root_truth
        self._last_app_truth = truth
        yield VmRun(
            StepKind.APP, body.address, body.size, cycles, accesses, ws,
            truth, caller, cpi, self.stats, "app_cycles",
        )

    def _caller_for(self, body: CodeBody) -> bool:
        """True when the previous application frame plausibly called this
        body (either method lists the other among its callees)."""
        if self._last_app_truth is None:
            return False
        prev_idx = self._name_to_idx.get(self._last_app_truth.symbol)
        if prev_idx is None:
            return False
        this_idx = body.method.index
        return (
            prev_idx in body.method.callees
            or this_idx in self.workload.methods[prev_idx].callees
        )

    def _vm_run(
        self,
        activity: VmActivity,
        cycles: int,
        working_set: WorkingSet | None = None,
        accesses: int | None = None,
    ) -> Iterator[VmRun]:
        if cycles <= 0:
            return
        yield from self._entry_run(
            self._pick_entry(activity), cycles,
            working_set=working_set, accesses=accesses,
        )

    def _entry_run(
        self,
        entry: RvmMapEntry,
        cycles: int,
        working_set: WorkingSet | None = None,
        accesses: int | None = None,
    ) -> Iterator[VmRun]:
        """VM execution pinned to one specific boot-image method."""
        if cycles <= 0:
            return
        truth = self._truth(Layer.VM, RVM_MAP_IMAGE_LABEL, entry.name)
        ws = working_set if working_set is not None else self._vm_ws
        acc = accesses if accesses is not None else cycles // 6
        yield VmRun(
            StepKind.VM, self.boot_base + entry.offset, entry.size, cycles,
            acc, ws, truth, self._last_app_truth or self._root_truth, 1.6,
            self.stats, "vm_cycles",
        )

    def _native_run(
        self,
        image: str,
        symbol: str,
        cycles: int,
        working_set: WorkingSet | None = None,
        accesses: int | None = None,
    ) -> Iterator[VmRun]:
        if cycles <= 0:
            return
        addr, size = self._native_site(image, symbol)
        truth = self._truth(Layer.NATIVE, image, symbol)
        acc = accesses if accesses is not None else cycles // 4
        yield VmRun(
            StepKind.NATIVE, addr, size, cycles, acc, working_set, truth,
            self._last_app_truth or self._root_truth, 1.2, self.stats,
            "native_cycles",
        )

    def _native_mix_run(self, cycles: int) -> Iterator[VmRun]:
        mix = self.workload.native_mix
        if not mix:
            return
        image, symbol, _ = self._rng.choices(
            mix, cum_weights=self._native_cum_weights
        )[0]
        yield from self._native_run(image, symbol, cycles)

    def _agent_run(self, symbol: str, cycles: int) -> Iterator[VmRun]:
        if cycles <= 0:
            return
        addr, size = self._native_site(AGENT_IMAGE_NAME, symbol)
        truth = self._truth(Layer.AGENT, AGENT_IMAGE_NAME, symbol)
        yield VmRun(
            StepKind.AGENT, addr, size, cycles, cycles // 8, None, truth,
            self._root_truth, 1.3, self.stats, "agent_cycles",
        )

    def _truth(self, layer: Layer, image: str, symbol: str) -> TruthLabel:
        key = (image, symbol)
        truth = self._truths.get(key)
        if truth is None:
            truth = self._truths[key] = TruthLabel(layer, image, symbol)
        return truth

    def _native_site(self, image: str, symbol: str) -> tuple[int, int]:
        key = (image, symbol)
        site = self._native_sites.get(key)
        if site is None:
            site = self._native_sites[key] = self._resolve_native(image, symbol)
        return site

    def _pick_entry(self, activity: VmActivity) -> RvmMapEntry:
        group = self.boot.entries_for(activity)
        cum_weights = self._entry_cum_weights[activity]
        return self._rng.choices(group, cum_weights=cum_weights)[0]

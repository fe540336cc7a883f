"""The full-system execution engine.

One :class:`SystemEngine` assembles and runs a complete simulated machine:

* a CPU with performance counters and an NMI line;
* a kernel with its symbol table, timer ticks, and per-slice syscall/fault
  activity;
* the benchmark process: a Jikes-RVM-like JVM (boot image mapped as a
  stripped file, nursery/mature heap as anonymous maps, standard shared
  libraries) executing one workload;
* a background X-server process (the ``libfb``/``libxul`` samples visible
  in the paper's Figure 1);
* optionally a profiler — stock OProfile or VIProf — whose daemon runs as
  its own scheduled process and whose every cost (NMI handler, daemon
  sample paths, VM-agent work) is charged in simulated cycles.

The run executes a fixed amount of *workload* (``budget_cycles`` of
JVM-process work, like pseudoJBB's fixed transaction count); everything the
profiler adds lengthens the wall clock, so

    ``slowdown = wall_cycles(profiled) / wall_cycles(base)``

is measured exactly the way the paper measures it.
"""

from __future__ import annotations

import tempfile
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from random import Random

from repro.errors import ConfigError
from repro.hardware.cache import CacheGeometry, SetAssociativeCache, StatisticalCacheModel
from repro.hardware.cpu import CPU, CpuMode
from repro.hardware.events import EventCounts
from repro.hardware.memory import WorkingSet
from repro.jvm.bootimage import BootImage, build_boot_image
from repro.jvm.heap import Heap
from repro.jvm.machine import (
    AGENT_IMAGE_NAME,
    JikesVM,
    StepKind,
    VmHooks,
    VmStep,
)
from repro.oprofile.daemon import DaemonWork, OprofileDaemon, build_daemon_image
from repro.oprofile.kmodule import OprofileKernelModule
from repro.oprofile.opcontrol import OprofileConfig
from repro.os.address_space import PAGE_SIZE, VmaKind
from repro.os.binary import NO_SYMBOLS, BinaryImage, Symbol, standard_libraries
from repro.os.kernel import Kernel
from repro.os.loader import ProgramLoader
from repro.os.scheduler import Scheduler, Task
from repro.profiling.model import Layer, TruthLabel
from repro.system.ledger import TruthLedger
from repro.pipeline.callgraph import CrossLayerCallGraph, LayeredNode
from repro.viprof.postprocess import ViprofReport
from repro.viprof.session import ViprofSession
from repro.workloads.base import SIM_HZ, Workload

__all__ = ["ProfilerMode", "EngineConfig", "RunResult", "SystemEngine"]

# --- pacing constants (simulated cycles) -----------------------------------
TICK_PERIOD = 34_000  # 100 Hz timer at the 3.4 MHz simulated clock
TIMER_COST = 240
TIMESLICE = 30_000  # benchmark scheduling quantum
BG_PERIOD = 55_000  # X-server wakeup period
BG_BURST = 1_400  # X-server work per wakeup (~2.5 % of cycles)
KERNEL_MISC_COST_RANGE = (300, 900)  # per-slice syscall/fault service
#: hot boot-image code (VM runtime + compiler paths) counted against the
#: ITLB's reach alongside compiled application bodies
_BOOT_HOT_CODE_BYTES = 160 * 1024
#: the X server's symbolized activities (the fourth, "libxul", samples a
#: stripped library)
_BG_SYMBOLS = {
    "fb_copy": ("libfb.so", "fbCopyAreammx"),
    "fb_composite": ("libfb.so", "fbCompositeSolidMask_nx8x8888mmx"),
    "dispatch": ("Xorg", "Dispatch"),
}


class ProfilerMode(Enum):
    NONE = "none"
    OPROFILE = "oprofile"
    VIPROF = "viprof"


@dataclass(frozen=True)
class EngineConfig:
    """One run's configuration.

    Attributes:
        mode: which profiler (if any) is attached.
        profile_config: event/period configuration (required unless NONE).
        session_dir: where sample files and code maps go; a fresh temp
            directory when None.
        seed: engine-level determinism root.
        time_scale: scales the workload budget (1.0 = paper-scale run).
        detailed_cache: use the set-associative simulator instead of the
            statistical model (slow; for validation).
        background: include the X-server background process.
        noise: jitter background volume per (workload, mode, period) — the
            "system noise and the uncertainty involved in full system
            measurements" the paper cites for sub-base runtimes.
        record_callgraph: collect cross-layer call arcs at sample time.
        viprof_full_maps / viprof_eager_move_log / viprof_anon_path:
            ablation switches (VIPROF mode only); defaults are the paper's
            design.  ``viprof_anon_path=True`` disables the JIT fast path.
    """

    mode: ProfilerMode = ProfilerMode.NONE
    profile_config: OprofileConfig | None = None
    session_dir: Path | None = None
    seed: int = 7
    time_scale: float = 1.0
    detailed_cache: bool = False
    background: bool = True
    noise: bool = True
    record_callgraph: bool = False
    viprof_full_maps: bool = False
    viprof_eager_move_log: bool = False
    viprof_anon_path: bool = False
    #: sample-file write-buffer watermark passed to the VIProf session
    #: (None = writer default).  Small values force frequent mid-run
    #: spills — the crash-recovery tests rely on that to land faults
    #: while sample data is on disk.
    viprof_write_buffer_bytes: int | None = None
    #: optional factory for the VM's adaptive optimization system (used by
    #: the profile-guided-optimization extension, :mod:`repro.pgo`)
    adaptive_factory: object | None = None
    #: profile only part of the run: (start, stop) as fractions of the
    #: workload budget.  (0.0, 1.0) — the default — is the paper's
    #: methodology ("we start VIProf just prior to benchmark launch");
    #: narrower windows model opcontrol --start/--stop around a region of
    #: interest, the interface an online adaptation loop needs.
    profile_window: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.mode is not ProfilerMode.NONE and self.profile_config is None:
            raise ConfigError(f"mode {self.mode.value} requires a profile_config")
        if self.time_scale <= 0:
            raise ConfigError("time_scale must be positive")
        lo, hi = self.profile_window
        if not (0.0 <= lo < hi <= 1.0):
            raise ConfigError(
                f"profile_window must satisfy 0 <= start < stop <= 1, "
                f"got {self.profile_window}"
            )


def build_agent_image() -> BinaryImage:
    """The VM-agent shared library (mapped only in VIProf runs)."""
    funcs = (
        ("agent_register_heap", 0x100),
        ("agent_log_compile", 0x120),
        ("agent_flag_moves", 0x80),
        ("agent_process_flags", 0xC0),
        ("agent_write_code_map", 0x2C0),
    )
    syms, off = [], 0x1000
    for name, size in funcs:
        syms.append(Symbol(offset=off, size=size, name=name))
        off += size + 16
    return BinaryImage(AGENT_IMAGE_NAME, 0x8000, syms)


def build_xorg_image() -> BinaryImage:
    return BinaryImage(
        "Xorg",
        0x80000,
        [
            Symbol(offset=0x1000, size=0x300, name="Dispatch"),
            Symbol(offset=0x1310, size=0x200, name="WaitForSomething"),
        ],
    )


def build_jikesrvm_bootstrap() -> BinaryImage:
    """The small C program that loads the RVM boot image (paper §3.2)."""
    return BinaryImage(
        "jikesrvm",
        0x8000,
        [
            Symbol(offset=0x1000, size=0x400, name="main"),
            Symbol(offset=0x1410, size=0x200, name="bootThread"),
            Symbol(offset=0x1620, size=0x180, name="sysCall"),
        ],
    )


@dataclass
class RunResult:
    """Everything a caller needs after one engine run."""

    workload_name: str
    mode: ProfilerMode
    config: EngineConfig
    budget_cycles: int
    wall_cycles: int
    workload_cycles: int
    ledger: TruthLedger
    kernel: Kernel
    boot: BootImage
    bench_pid: int
    session_dir: Path | None
    sample_dir: Path | None
    vm_stats: object
    gc_stats: object
    cpu_stats: object
    daemon_stats: object | None = None
    agent_stats: object | None = None
    buffer_lost: int = 0
    viprof_session: ViprofSession | None = None
    callgraph: CrossLayerCallGraph | None = None

    @property
    def seconds(self) -> float:
        """Wall time at the simulated clock rate."""
        return self.wall_cycles / SIM_HZ

    def slowdown_vs(self, base: "RunResult") -> float:
        """Normalized execution time relative to a base (unprofiled) run."""
        if base.wall_cycles <= 0:
            raise ConfigError("base run has no cycles")
        return self.wall_cycles / base.wall_cycles

    # -- report builders -------------------------------------------------

    def oprofile_report(self, workers: int | str = 1):
        """Stock opreport over this run's sample files."""
        from repro.oprofile.opreport import OpReport

        if self.sample_dir is None:
            raise ConfigError("run was not profiled; no sample files")
        return OpReport(self.kernel, self.sample_dir).generate(workers=workers)

    def viprof_report(
        self,
        backward_traversal: bool = True,
        workers: int | str = 1,
    ) -> "ViprofReportResult":
        """VIProf post-processing (report + resolution statistics).

        ``backward_traversal=False`` runs the resolution ablation (own-epoch
        map only).  ``workers`` shards resolution across processes
        (``"auto"`` sizes the pool from the core count) without changing
        a byte of output."""
        if self.viprof_session is None:
            raise ConfigError("run was not profiled with VIProf")
        post = self.viprof_session.report(
            self.boot.rvm_map, backward_traversal=backward_traversal
        )
        report = post.generate(workers=workers)
        return ViprofReportResult(report=report, post=post)


@dataclass
class ViprofReportResult:
    report: object  # ProfileReport
    post: ViprofReport

    @property
    def jit_stats(self):
        return self.post.jit_stats

    @property
    def stage_stats(self) -> dict[str, object]:
        """Per-stage hit/miss counters of the resolver chain that built
        this report (JSON-able; includes the JIT epoch detail)."""
        return self.post.chain.stats_dict()


class SystemEngine:
    """Assembles one machine and runs one benchmark configuration."""

    def __init__(self, workload: Workload, config: EngineConfig) -> None:
        self.workload = workload
        self.config = config
        self.budget = workload.budget_cycles(config.time_scale)
        self.ledger = TruthLedger()
        self.workload_cycles = 0
        self._profiler_attached = False
        self._build_machine()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_machine(self) -> None:
        cfg = self.config
        wl = self.workload
        self.kernel = Kernel()
        self.cpu = CPU()
        layout = self.kernel.layout

        # --- benchmark process ----------------------------------------
        self.bench = self.kernel.spawn("JikesRVM")
        loader = ProgramLoader(self.bench.address_space, layout)
        loader.load_executable(build_jikesrvm_bootstrap())
        for img in standard_libraries():
            loader.load_library(img)
        if cfg.mode is ProfilerMode.VIPROF:
            loader.load_library(build_agent_image())

        self.boot = build_boot_image()
        boot_vma = loader.map_file_segment(self.boot.image, at=layout.anon_base)
        nursery_at = boot_vma.end + PAGE_SIZE
        nursery_vma = loader.map_anonymous(wl.nursery_bytes, at=nursery_at)
        mature_at = nursery_vma.end + PAGE_SIZE
        mature_vma = loader.map_anonymous(wl.mature_bytes, at=mature_at)
        loader.map_stack()
        self.heap = Heap(
            nursery_base=nursery_vma.start,
            nursery_size=wl.nursery_bytes,
            mature_base=mature_vma.start,
            mature_size=wl.mature_bytes,
        )

        # --- background process (X server) ----------------------------
        self.bg = None
        if cfg.background:
            self.bg = self.kernel.spawn("Xorg")
            bg_loader = ProgramLoader(self.bg.address_space, layout)
            bg_loader.load_executable(build_xorg_image())
            for img in standard_libraries():
                bg_loader.load_library(img)

        # --- profiler stack --------------------------------------------
        self.session_dir: Path | None = None
        self.sample_dir: Path | None = None
        self.daemon: OprofileDaemon | None = None
        self.kmodule: OprofileKernelModule | None = None
        self.viprof: ViprofSession | None = None
        self.daemon_proc = None
        hooks: VmHooks | None = None

        if cfg.mode is not ProfilerMode.NONE:
            assert cfg.profile_config is not None
            self.session_dir = cfg.session_dir or Path(
                tempfile.mkdtemp(prefix=f"viprof-{wl.name}-")
            )
            self.daemon_proc = self.kernel.spawn("oprofiled")
            dloader = ProgramLoader(self.daemon_proc.address_space, layout)
            self.daemon_image = build_daemon_image()
            dloader.load_executable(self.daemon_image)

            if cfg.mode is ProfilerMode.OPROFILE:
                self.kmodule = OprofileKernelModule(cfg.profile_config)
                self.sample_dir = self.session_dir / "samples"
                self.daemon = OprofileDaemon(
                    self.kernel, self.kmodule, cfg.profile_config, self.sample_dir
                )
            else:
                self.viprof = ViprofSession(
                    self.kernel, cfg.profile_config, self.session_dir,
                    full_map_rewrite=cfg.viprof_full_maps,
                    eager_move_logging=cfg.viprof_eager_move_log,
                    jit_fast_path=not cfg.viprof_anon_path,
                    write_buffer_bytes=cfg.viprof_write_buffer_bytes,
                )
                self.kmodule = self.viprof.kmodule
                self.daemon = self.viprof.daemon
                self.sample_dir = self.viprof.sample_dir
                hooks = self.viprof.make_agent(
                    vm_task_id=self.bench.pid,
                    epoch_source=lambda: self.machine.epoch,
                )

        # --- the JVM ----------------------------------------------------
        self.machine = JikesVM(
            boot=self.boot,
            boot_base=boot_vma.start,
            heap=self.heap,
            workload=wl,
            native_resolver=self._resolve_native,
            seed=cfg.seed ^ (wl.seed << 8),
            hooks=hooks,
            adaptive=(
                cfg.adaptive_factory() if cfg.adaptive_factory is not None
                else None
            ),
        )

        # --- cache model -------------------------------------------------
        geometry = CacheGeometry.paper_l2()
        if cfg.detailed_cache:
            self._cache = _DetailedCacheAdapter(SetAssociativeCache(geometry))
        else:
            self._cache = StatisticalCacheModel(geometry, seed=cfg.seed)

        # --- scheduler -----------------------------------------------
        self.sched = Scheduler()
        self.bench_task = Task(process=self.bench, priority=10)
        self.sched.add(self.bench_task)
        self.daemon_task = None
        if self.daemon_proc is not None:
            self.daemon_task = Task(process=self.daemon_proc, priority=5)
            self.sched.add(self.daemon_task)
            self.sched.sleep(self.daemon_task, cfg.profile_config.daemon_period)
        self.bg_task = None
        if self.bg is not None:
            # Interactive process: preempts the CPU-bound benchmark when it
            # wakes, runs its short burst, and sleeps again.
            self.bg_task = Task(process=self.bg, priority=8)
            self.sched.add(self.bg_task)
            self.sched.sleep(self.bg_task, BG_PERIOD)

        # --- misc ----------------------------------------------------
        period = (
            cfg.profile_config.primary_period
            if cfg.profile_config is not None
            else 0
        )
        noise_key = f"{wl.name}:{cfg.mode.value}:{period}:{cfg.seed}".encode()
        noise_seed = zlib.crc32(noise_key)
        self._noise_rng = Random(noise_seed)
        self._kmisc_rng = Random(cfg.seed ^ 0xBEEF)
        self._bg_rng = Random(cfg.seed ^ 0xB6)
        self._bg_ws = WorkingSet(
            base=0x2000_0000, size=8 * 1024 * 1024, locality=0.7,
            hot_fraction=0.1, seed=cfg.seed ^ 0xB61,
        )
        self.callgraph = (
            CrossLayerCallGraph() if cfg.record_callgraph else None
        )
        from repro.hardware.tlb import StatisticalTlbModel

        self._tlb = StatisticalTlbModel(seed=cfg.seed)
        self._nmi_truth = TruthLabel(
            Layer.KERNEL, self.kernel.image.name, "oprofile_nmi_handler"
        )
        self._build_sites()

    def _build_sites(self) -> None:
        """Resolve, once, every kernel, daemon and X-server symbol the run
        executes to its ``(pc, size, truth)`` site."""
        kimage = self.kernel.image
        self._kernel_activities = self.kernel.standard_activities()
        self._kernel_sites = {
            name: (
                self.kernel.kernel_pc(name),
                kimage.find_symbol(name).size,
                TruthLabel(Layer.KERNEL, kimage.name, name),
            )
            for name in (
                "__switch_to",
                "timer_interrupt",
                *(act.symbol for act in self._kernel_activities),
            )
        }
        self._daemon_sites: dict[str, tuple[int, int, TruthLabel]] = {}
        if self.daemon_proc is not None:
            for sym in self.daemon_image.symbols:
                self._daemon_sites[sym.name] = (
                    *self._daemon_pc(sym.name),
                    TruthLabel(Layer.DAEMON, self.daemon_image.name, sym.name),
                )
        if self.bg is not None:
            xul = next(
                v for v in self.bg.address_space
                if v.image is not None and v.image.name.startswith("libxul")
            )
            self._libxul = (
                xul.start, xul.size, TruthLabel(Layer.OTHER, xul.image.name, NO_SYMBOLS)
            )
            self._bg_sites = {
                choice: (
                    *self._bg_pc(image, symbol),
                    TruthLabel(Layer.OTHER, image, symbol),
                )
                for choice, (image, symbol) in _BG_SYMBOLS.items()
            }

    # ------------------------------------------------------------------

    def _resolve_native(self, image_name: str, symbol: str) -> tuple[int, int]:
        for vma in self.bench.address_space:
            if vma.kind is VmaKind.FILE and vma.image is not None:
                if vma.image.name == image_name:
                    sym = vma.image.find_symbol(symbol)
                    return vma.start + sym.offset - vma.image_offset, sym.size
        raise ConfigError(f"image {image_name!r} not mapped in benchmark process")

    def _daemon_pc(self, symbol: str) -> tuple[int, int]:
        assert self.daemon_proc is not None
        for vma in self.daemon_proc.address_space:
            if vma.kind is VmaKind.FILE and vma.image is not None:
                sym = vma.image.find_symbol(symbol)
                return vma.start + sym.offset, sym.size
        raise ConfigError("daemon process has no executable mapping")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _attach_profiler(self) -> None:
        assert self.kmodule is not None
        if self.config.mode is ProfilerMode.VIPROF:
            assert self.viprof is not None
            self.viprof.start(self.cpu)
        else:
            assert self.daemon is not None
            self.kmodule.setup(self.cpu)
            self.daemon.start()
        self._profiler_attached = True

    def _detach_profiler(self) -> DaemonWork:
        assert self.kmodule is not None
        if self.config.mode is ProfilerMode.VIPROF:
            assert self.viprof is not None
            work = self.viprof.stop()
        else:
            assert self.daemon is not None
            work = self.daemon.stop()
            self.kmodule.shutdown()
        self._profiler_attached = False
        return work

    def run(self) -> RunResult:
        cfg = self.config
        self._profiler_attached = False
        lo, hi = cfg.profile_window
        attach_at = int(lo * self.budget)
        detach_at = int(hi * self.budget)
        if self.kmodule is not None and attach_at <= 0:
            self._attach_profiler()

        vm_iter = self.machine.run()
        next_tick = TICK_PERIOD

        while self.workload_cycles < self.budget:
            if self.kmodule is not None:
                if (
                    not self._profiler_attached
                    and attach_at > 0
                    and self.workload_cycles >= attach_at
                    and self.workload_cycles < detach_at
                ):
                    self._attach_profiler()
                elif (
                    self._profiler_attached
                    and detach_at < self.budget
                    and self.workload_cycles >= detach_at
                ):
                    self._exec_daemon_work(self._detach_profiler())
            task, switch_cost = self.sched.pick(self.cpu.cycle)
            if switch_cost:
                self._exec_kernel("__switch_to", switch_cost, self.bench.pid)
            if task is None:
                wake = self.sched.next_wake()
                idle = max(1, (wake or self.cpu.cycle + 1000) - self.cpu.cycle)
                self.cpu.idle(idle)
                self.ledger.record_idle(idle)
                continue

            if task is self.bench_task:
                slice_end = self.cpu.cycle + TIMESLICE
                while (
                    self.cpu.cycle < slice_end
                    and self.workload_cycles < self.budget
                ):
                    if self.cpu.cycle >= next_tick:
                        self._exec_kernel("timer_interrupt", TIMER_COST, task.pid)
                        next_tick += TICK_PERIOD
                        continue
                    step = next(vm_iter)
                    self._exec_step(step)
                self._exec_kernel_misc(task.pid)
            elif task is self.daemon_task:
                self._run_daemon_wakeup()
            elif task is self.bg_task:
                self._run_background()
            else:  # pragma: no cover - defensive
                raise ConfigError(f"unknown task {task.name}")

        # Drain: VM exit hook (final code-map flush), final daemon pass,
        # profiler teardown (unless a narrow window already detached it).
        for step in self.machine.finish():
            self._exec_step(step)
        buffer_lost = 0
        if self.kmodule is not None:
            buffer_lost = self.kmodule.buffer.lost
            if self._profiler_attached:
                self._exec_daemon_work(self._detach_profiler())

        return RunResult(
            workload_name=self.workload.name,
            mode=cfg.mode,
            config=cfg,
            budget_cycles=self.budget,
            wall_cycles=self.cpu.cycle,
            workload_cycles=self.workload_cycles,
            ledger=self.ledger,
            kernel=self.kernel,
            boot=self.boot,
            bench_pid=self.bench.pid,
            session_dir=self.session_dir,
            sample_dir=self.sample_dir,
            vm_stats=self.machine.stats,
            gc_stats=self.machine.collector.stats,
            cpu_stats=self.cpu.stats,
            daemon_stats=self.daemon.stats if self.daemon else None,
            agent_stats=(
                self.viprof.agent.stats if self.viprof is not None else None
            ),
            buffer_lost=buffer_lost,
            viprof_session=self.viprof,
            callgraph=self.callgraph,
        )

    # ------------------------------------------------------------------

    def _counts_for(
        self,
        cycles: int,
        instructions: int,
        accesses: int,
        misses: int,
        itlb_misses: int = 0,
    ) -> EventCounts:
        return EventCounts(
            cycles=cycles,
            instructions=instructions,
            l2_references=accesses,
            l2_misses=misses,
            branches=instructions // 6,
            branch_mispredicts=instructions // 120,
            itlb_misses=itlb_misses,
        )

    def _execute(
        self,
        pc: int,
        code_len: int,
        counts: EventCounts,
        mode: CpuMode,
        task_id: int,
        truth: TruthLabel,
        caller: TruthLabel | None = None,
    ) -> None:
        cpu = self.cpu
        cpu.current_task_id = task_id
        prev_nmi = cpu.stats.nmi_handler_cycles
        if self.callgraph is not None and self.kmodule is not None:
            self._execute_recording_arcs(pc, code_len, counts, mode, truth, caller)
        else:
            cpu.execute(pc, code_len, counts, mode)
        self.ledger.record(truth, counts.cycles, counts.l2_misses)
        nmi_delta = cpu.stats.nmi_handler_cycles - prev_nmi
        if nmi_delta:
            self.ledger.record(self._nmi_truth, nmi_delta, 0)

    def _execute_recording_arcs(
        self,
        pc: int,
        code_len: int,
        counts: EventCounts,
        mode: CpuMode,
        truth: TruthLabel,
        caller: TruthLabel | None,
    ) -> None:
        """Execute one quantum and charge each sample it captured to the
        quantum's truth, under the event whose counter took it."""
        captured = self.kmodule.buffer.captured_by_event
        before = dict(captured)
        self.cpu.execute(pc, code_len, counts, mode)
        if captured == before:
            return
        callee = LayeredNode(truth.layer, truth.image, truth.symbol)
        caller_node = (
            LayeredNode(caller.layer, caller.image, caller.symbol)
            if caller is not None
            else None
        )
        for event_name, n in captured.items():
            n -= before.get(event_name, 0)
            if n:
                self.callgraph.record(caller_node, callee, event_name, count=n)

    def _exec_step(self, step: VmStep) -> None:
        ws = step.working_set
        accesses = step.accesses
        misses = (
            self._cache.misses_for(ws, accesses)
            if ws is not None and accesses > 0
            else 0
        )
        # Code footprint: the hot boot-image paths plus every live
        # compiled body; when it exceeds the ITLB's 256 KB reach, page
        # touches miss.
        footprint = _BOOT_HOT_CODE_BYTES + self.machine.stats.live_code_bytes
        itlb = self._tlb.misses_for_step(step.code_len, footprint)
        instructions = step.instructions
        counts = EventCounts(
            step.cycles, instructions, accesses, misses,
            instructions // 6, instructions // 120, itlb,
        )
        self._execute(
            step.pc, step.code_len, counts, CpuMode.USER, self.bench.pid,
            step.truth, step.caller,
        )
        if step.kind is not StepKind.AGENT:
            self.workload_cycles += step.cycles

    def _exec_kernel(self, symbol: str, cycles: int, task_id: int) -> None:
        pc, size, truth = self._kernel_sites[symbol]
        counts = self._counts_for(cycles, cycles // 2, cycles // 10, 0)
        self._execute(pc, size, counts, CpuMode.KERNEL, task_id, truth)

    def _exec_kernel_misc(self, task_id: int) -> None:
        """Per-slice syscall/page-fault service on behalf of the benchmark."""
        act = self._kmisc_rng.choice(self._kernel_activities)
        jitter = self._kmisc_rng.randint(*KERNEL_MISC_COST_RANGE)
        self._exec_kernel(act.symbol, max(60, act.cycles + jitter - 600), task_id)

    def _run_daemon_wakeup(self) -> None:
        assert self.daemon is not None and self.daemon_task is not None
        if self._profiler_attached:
            work = self.daemon.wakeup()
            self._exec_daemon_work(work)
        assert self.config.profile_config is not None
        self.sched.sleep(
            self.daemon_task,
            self.cpu.cycle + self.config.profile_config.daemon_period,
        )

    def _exec_daemon_work(self, work: DaemonWork) -> None:
        if self.daemon_proc is None:
            return
        for symbol, cycles in work.by_symbol.items():
            pc, size, truth = self._daemon_sites[symbol]
            counts = self._counts_for(cycles, int(cycles / 1.4), cycles // 6, 0)
            self._execute(
                pc, size, counts, CpuMode.USER, self.daemon_proc.pid, truth
            )

    def _run_background(self) -> None:
        assert self.bg is not None and self.bg_task is not None
        burst = BG_BURST
        if self.config.noise:
            burst = int(BG_BURST * self._noise_rng.uniform(0.3, 1.7))
        choice = self._bg_rng.choices(
            ["libxul", "fb_copy", "fb_composite", "dispatch"],
            weights=[3.0, 1.2, 1.0, 1.6],
        )[0]
        if choice == "libxul":
            start, span, truth = self._libxul
            off = self._bg_rng.randrange(0x1000, span - 0x1000, 4)
            pc, size = start + off, 0x200
        else:
            pc, size, truth = self._bg_sites[choice]
        accesses = burst // 3
        misses = self._cache.misses_for(self._bg_ws, accesses) if accesses > 0 else 0
        counts = self._counts_for(burst, int(burst / 1.3), accesses, misses)
        self._execute(pc, size, counts, CpuMode.USER, self.bg.pid, truth)
        self.sched.sleep(self.bg_task, self.cpu.cycle + BG_PERIOD)

    def _bg_pc(self, image_name: str, symbol: str) -> tuple[int, int]:
        assert self.bg is not None
        for vma in self.bg.address_space:
            if vma.kind is VmaKind.FILE and vma.image is not None:
                if vma.image.name == image_name:
                    sym = vma.image.find_symbol(symbol)
                    return vma.start + sym.offset, sym.size
        raise ConfigError(f"image {image_name!r} not mapped in background process")


class _DetailedCacheAdapter:
    """Adapts the set-associative simulator to the statistical model's
    ``misses_for`` interface by generating a real address stream."""

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.cache = cache

    def misses_for(self, ws: WorkingSet, n_accesses: int) -> int:
        stream = ws.stream(n_accesses, line=self.cache.geometry.line_bytes)
        _, misses = self.cache.access_stream(stream)
        return misses

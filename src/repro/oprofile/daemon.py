"""The user-level OProfile daemon (``oprofiled``).

The daemon wakes periodically, drains the kernel sample buffer, attributes
each sample to a mapping, and appends it to per-event sample files.  The
paper calls this "the main source of profiling overhead", and its per-sample
costs are where OProfile and VIProf genuinely differ:

* a **file-backed** sample is cheap: VMA lookup, image-keyed append;
* a **kernel** sample is cheaper still (no VMA walk);
* an **anonymous** sample is the expensive path: stock OProfile maintains
  anonymous-mapping bookkeeping per range (this is every JIT sample, since
  the JVM heap is an anonymous map);
* VIProf *replaces* the anonymous path for registered VM heaps with a bounds
  check + epoch tag (see
  :class:`repro.viprof.runtime_profiler.ViprofRuntimeProfiler`), which is
  why VIProf occasionally beats OProfile in Figure 2.

Costs are charged in cycles, and the engine replays them as execution of
the daemon binary, so the profiler shows up in its own profiles — just like
real ``oprofiled`` does.

The drain path is batched: a wakeup takes the kernel buffer in bounded
chunks, classifies each whole chunk in one partitioning pass
(:meth:`OprofileDaemon.classify_chunk` — one process lookup per distinct
task per chunk instead of one per sample), and hands per-image sample
batches to buffered writers that flush in append order.  Batching is a
wall-clock optimization of the *simulator*, never of the simulated
machine: :class:`DaemonCosts` cycles are still charged per logical sample,
grouped by consecutive category runs so every ``DaemonWork`` total,
per-symbol breakdown (including dict insertion order, which fixes the
replay order of daemon quanta), and :class:`DaemonStats` counter is
identical to a sample-at-a-time drain — and so are the session files,
byte for byte (``tests/oprofile/test_daemon.py`` keeps that drain as the
reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ProfilerError
from repro.faults import injector as faults
from repro.os.binary import BinaryImage, Symbol
from repro.os.kernel import Kernel
from repro.oprofile.kmodule import OprofileKernelModule
from repro.oprofile.opcontrol import OprofileConfig
from repro.os.address_space import VmaKind
from repro.profiling.model import RawSample
from repro.profiling.samplefile import SampleFileWriter

__all__ = ["DaemonCosts", "DaemonWork", "OprofileDaemon", "build_daemon_image"]

#: Records the daemon takes from the kernel buffer per drain chunk.
DRAIN_CHUNK_RECORDS = 4096


def build_daemon_image() -> BinaryImage:
    """The ``oprofiled`` binary with the symbols its work is charged to."""
    funcs = (
        ("opd_main_loop", 0x200),
        ("opd_process_samples", 0x300),
        ("opd_vma_lookup", 0x180),
        ("opd_anon_mapping_log", 0x240),
        ("opd_jit_heap_check", 0x80),
        ("opd_sfile_write", 0x200),
    )
    syms = []
    off = 0x1000
    for name, size in funcs:
        syms.append(Symbol(offset=off, size=size, name=name))
        off += size + 16
    return BinaryImage("oprofiled", 0x20000, syms)


@dataclass(frozen=True, slots=True)
class DaemonCosts:
    """Per-operation daemon costs in cycles.

    Calibrated so the paper's configuration (90 K period) yields ~5 %
    end-to-end overhead; see ``benchmarks/bench_fig2_overhead.py``.
    """

    wakeup: int = 1200  # syscall return, buffer read, locking
    resolve: int = 380  # VMA walk + image cookie lookup per sample
    kernel_sample: int = 200  # kernel samples skip the VMA walk
    anon_extra: int = 520  # anonymous-mapping bookkeeping (stock OProfile)
    jit_classify: int = 120  # VIProf heap bounds check + epoch tag
    write_per_sample: int = 70
    flush: int = 700  # per wakeup that wrote anything


@dataclass(slots=True)
class DaemonWork:
    """Cycle cost of one daemon wakeup, broken down by daemon function so
    the engine can attribute execution to the right ``oprofiled`` symbols."""

    total: int = 0
    by_symbol: dict[str, int] = field(default_factory=dict)

    def charge(self, symbol: str, cycles: int) -> None:
        if cycles <= 0:
            return
        self.total += cycles
        self.by_symbol[symbol] = self.by_symbol.get(symbol, 0) + cycles


@dataclass
class DaemonStats:
    samples_logged: int = 0
    kernel_samples: int = 0
    file_samples: int = 0
    anon_samples: int = 0
    jit_samples: int = 0  # VIProf-classified (always 0 for stock OProfile)
    wakeups: int = 0


class OprofileDaemon:
    """Stock oprofiled: drains the buffer and logs samples to disk."""

    #: categories returned by :meth:`classify_chunk`
    KERNEL = "kernel"
    FILE = "file"
    ANON = "anon"
    JIT = "jit"

    def __init__(
        self,
        kernel: Kernel,
        kmodule: OprofileKernelModule,
        config: OprofileConfig,
        output_dir: Path | str,
        costs: DaemonCosts | None = None,
        write_buffer_bytes: int | None = None,
    ) -> None:
        """``write_buffer_bytes`` is the per-image writer high-water
        mark."""
        self.kernel = kernel
        self.kmodule = kmodule
        self.config = config
        self.output_dir = Path(output_dir)
        self.costs = costs if costs is not None else DaemonCosts()
        self.write_buffer_bytes = write_buffer_bytes
        self.stats = DaemonStats()
        #: cumulative cycles of daemon work across every wakeup — the
        #: numerator of the ``daemon`` overhead panel
        self.work_cycles = 0
        self._writers: dict[str, SampleFileWriter] = {}
        self._started = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise ProfilerError("daemon already started")
        self.output_dir.mkdir(parents=True, exist_ok=True)
        for spec in self.config.events:
            path = self.output_dir / f"{spec.event_name}.samples"
            self._writers[spec.event_name] = SampleFileWriter(
                path, spec.event_name, spec.period,
                buffer_bytes=self.write_buffer_bytes,
            )
        self._started = True

    def stop(self) -> DaemonWork:
        """Final drain + close the sample files."""
        work = self.wakeup()
        for w in self._writers.values():
            w.close()
        self._started = False
        return work

    def sample_file(self, event_name: str) -> Path:
        return self.output_dir / f"{event_name}.samples"

    def _abandon_writers(self) -> None:
        """Fault effect: the daemon process dies — every sample writer's
        buffered records are lost, leaving record-aligned prefixes on
        disk.  Only fault-injection effects call this."""
        for w in self._writers.values():
            w.abandon()

    def crash(self) -> None:
        """Finish simulating the daemon's death after an injected fault:
        drop whatever the writers still buffer and release the sample
        files exactly as the kernel would on process exit — no final
        drain, no flush.  Salvage runs against the result."""
        self._abandon_writers()
        for w in self._writers.values():
            w.close()
        self._started = False

    # ------------------------------------------------------------------

    def classify_chunk(self, samples: list[RawSample]) -> list[str]:
        """Attribute each sample of a drained chunk to kernel /
        file-backed / anonymous, in one partitioning pass.

        Returns one category per sample, in order, looking each distinct
        task's process up once per chunk.  VIProf's runtime profiler
        overrides this to short-circuit registered VM heap ranges into
        the JIT category *before* the anonymous path.
        """
        kernel = self.kernel
        is_kaddr = kernel.is_kernel_address
        procs: dict[int, object] = {}
        cats: list[str] = []
        append = cats.append
        for s in samples:
            if s.kernel_mode or is_kaddr(s.pc):
                append(self.KERNEL)
                continue
            tid = s.task_id
            try:
                proc = procs[tid]
            except KeyError:
                proc = procs[tid] = kernel.process(tid)
            if proc is None:
                append(self.ANON)
                continue
            vma = proc.address_space.resolve(s.pc)
            if vma is None or vma.kind is not VmaKind.FILE:
                append(self.ANON)
            else:
                append(self.FILE)
        return cats

    def _log_cost_run(self, category: str, count: int, work: DaemonWork) -> None:
        """Charge ``count`` consecutive samples of one category.

        Cycles stay per logical sample (``cost x count``); grouping by
        run preserves a sample-at-a-time drain's charge sequence, so
        ``DaemonWork.by_symbol`` insertion order — which fixes the order
        the engine replays daemon quanta in — cannot drift.
        """
        c = self.costs
        if category == self.KERNEL:
            work.charge("opd_process_samples", c.kernel_sample * count)
            self.stats.kernel_samples += count
        elif category == self.FILE:
            work.charge("opd_vma_lookup", c.resolve * count)
            self.stats.file_samples += count
        elif category == self.ANON:
            work.charge("opd_vma_lookup", c.resolve * count)
            work.charge("opd_anon_mapping_log", c.anon_extra * count)
            self.stats.anon_samples += count
        elif category == self.JIT:
            work.charge("opd_jit_heap_check", c.jit_classify * count)
            self.stats.jit_samples += count
        else:  # pragma: no cover - defensive
            raise ProfilerError(f"unknown sample category {category!r}")

    def wakeup(self) -> DaemonWork:
        """One daemon period: drain, classify, log, flush."""
        if not self._started:
            raise ProfilerError("daemon not started")
        work = DaemonWork()
        work.charge("opd_main_loop", self.costs.wakeup)
        self.stats.wakeups += 1
        drained = False
        while True:
            chunk = self.kmodule.buffer.drain(DRAIN_CHUNK_RECORDS)
            if not chunk:
                break
            drained = True
            self._process_chunk(chunk, work)
            if faults.armed():
                # Crash point between drain chunks: records handed to
                # the writers but still buffered die with the process.
                faults.fire(
                    faults.DAEMON_DRAIN,
                    effect=lambda rng: self._abandon_writers(),
                )
        if drained:
            work.charge("opd_sfile_write", self.costs.flush)
        self.work_cycles += work.total
        return work

    def overhead_panel(self) -> dict[str, int | float]:
        """Raw overhead counters for the unified summary's ``daemon``
        panel (:mod:`repro.metrics`): total daemon cycles, wakeups, and
        the samples that work logged."""
        return {
            "work_cycles": self.work_cycles,
            "wakeups": self.stats.wakeups,
            "samples_logged": self.stats.samples_logged,
        }

    def _process_chunk(self, chunk: list[RawSample], work: DaemonWork) -> None:
        """Batched drain: one classification pass, per-sample cycle charges
        grouped by category run, one bulk-encoded write per image file."""
        cats = self.classify_chunk(chunk)
        write_per_sample = self.costs.write_per_sample
        i, n = 0, len(cats)
        while i < n:
            cat = cats[i]
            j = i + 1
            while j < n and cats[j] == cat:
                j += 1
            run = j - i
            self._log_cost_run(cat, run, work)
            work.charge("opd_sfile_write", write_per_sample * run)
            i = j
        by_event: dict[str, list[RawSample]] = {}
        for s in chunk:
            by_event.setdefault(s.event_name, []).append(s)
        for event, batch in by_event.items():
            writer = self._writers.get(event)
            if writer is None:
                raise ProfilerError(
                    f"sample for unconfigured event {event!r}"
                )
            writer.write_batch(batch)
        self.stats.samples_logged += len(chunk)

"""The multi-stack engine: several guest software stacks over one CPU.

Each guest is a full isolated stack — its own kernel, its own Jikes-RVM-like
VM with its own heap, code maps and workload — exactly the VIVA execution
model the paper's introduction describes (one application per virtualized
stack).  The hypervisor time-slices the guests on one physical CPU;
XenoProf owns the counters and tags samples with the running domain.

This is a profiling *prototype* of the paper's future work, so the guest
stacks run without per-guest daemon processes: the hypervisor-side buffer
is large (as XenoProf's shared pages are) and post-processing reads it
directly.  VM-agent costs (code-map writes) are still charged inside each
guest, so per-guest VIProf overhead remains visible.  Each guest's JVM
stack is built and run by the single-stack engine's code
(:func:`~repro.system.engine.build_jvm_stack`, one
:class:`~repro.system.engine.VmExecutor` per guest).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ConfigError, InjectedFault, ProfilerError
from repro.faults import injector as faults
from repro.hardware.cpu import CPU, CpuMode
from repro.hardware.events import EventCounts
from repro.hardware.interrupts import InterruptFrame
from repro.jvm.machine import StepKind
from repro.oprofile.opcontrol import OprofileConfig
from repro.os.kernel import Kernel
from repro.pipeline import ResolverChain, viprof_chain, xen_chain
from repro.profiling.model import Layer, RawSample, ResolvedSample, TruthLabel
from repro.profiling.record_codec import DOMAIN_CODEC, RecordFileWriter
from repro.profiling.report import ProfileReport, StreamingAggregator
from repro.system.engine import VmExecutor, build_jvm_stack
from repro.viprof.codemap import CodeMapIndex, CodeMapWriter, map_files
from repro.viprof.runtime_profiler import VmRegistration
from repro.viprof.vm_agent import ViprofVmAgent
from repro.workloads.base import Workload
from repro.xen.hypervisor import Domain, Hypervisor, VcpuScheduler
from repro.xen.xenoprof import XenoProfBuffer, XenoSample

__all__ = ["GuestSpec", "MultiStackEngine", "MultiStackResult"]

#: cost of the XenoProf NMI handler (runs in the hypervisor)
XEN_NMI_HANDLER_CYCLES = 1_300
#: hypervisor timer interrupt period and cost
XEN_TIMER_PERIOD = 34_000


@dataclass(frozen=True)
class GuestSpec:
    """One guest stack to build."""

    workload: Workload
    weight: int = 256
    seed: int = 7


@dataclass
class _Guest:
    domain: Domain
    kernel: Kernel
    vm: VmExecutor
    map_dir: Path
    killed: InjectedFault | None = None


@dataclass
class MultiStackResult:
    """Everything a caller needs after a multi-stack run.

    Guest chains are built on demand, never during the run: every report
    and every fleet resolution goes through :meth:`domain_chain`, so a
    guest's code maps load only when someone resolves its samples, and a
    torn map raises :class:`~repro.viprof.codemap.CodeMapError` until the
    domain is salvaged and its bad epochs quarantined.
    """

    hypervisor: Hypervisor
    buffer: XenoProfBuffer
    guests: dict[int, _Guest]
    wall_cycles: int
    session_dir: Path
    config: OprofileConfig

    @property
    def killed_domains(self) -> tuple[int, ...]:
        """Domains whose guest died to an injected fault this run."""
        return tuple(
            did for did, g in sorted(self.guests.items())
            if g.killed is not None
        )

    # -- persistence ---------------------------------------------------

    def _write_sample_files(self, dirs: dict[Path, int | None]) -> list[Path]:
        """One ``XPRS`` file per programmed event in each directory of
        ``dirs``, which maps a directory to the domain it holds (``None``
        for every domain); returns the paths written.

        The buffer is partitioned once, in buffer order.  An event a
        directory never saw still gets its file, header-only, so every
        session — an empty fleet's, or a freshly killed guest's
        sub-session — is complete (and salvageable).
        """
        parts: dict[tuple[int | None, str], tuple[list, list]] = {}
        for s in self.buffer.samples:
            for did in (None, s.domain_id):
                raws, dids = parts.setdefault(
                    (did, s.raw.event_name), ([], [])
                )
                raws.append(s.raw)
                dids.append(s.domain_id)
        events = sorted(spec.event_name for spec in self.config.events)
        period = self.config.primary_period
        paths = []
        for dest, did in dirs.items():
            dest.mkdir(parents=True, exist_ok=True)
            for event in events:
                raws, dids = parts.get((did, event), ([], []))
                path = dest / f"xenoprof.{event}.samples"
                with RecordFileWriter(path, DOMAIN_CODEC, event, period) as w:
                    w.write_batch(raws, dids)
                paths.append(path)
        return paths

    def save_samples(self) -> list[Path]:
        """Persist the tagged sample stream, one file per event, under the
        session directory (what XenoProf's dom0 daemon does)."""
        return self._write_sample_files({self.session_dir: None})

    def save_fleet_session(self) -> list[Path]:
        """Persist the many-guest fleet layout.

        The root stream lands in ``samples/`` (all domains, one ``XPRS``
        file per event — what dom0's daemon drains from the shared
        buffer), and each domain additionally gets its own sub-session
        ``dom{N}/samples/`` next to its ``dom{N}/jit-maps/`` — a complete,
        independently salvageable session per guest.  Per-domain record
        order matches the root stream (both are buffer order), so the
        per-domain files are an exact partition of the root stream.
        """
        dirs: dict[Path, int | None] = {self.session_dir / "samples": None}
        for did in sorted(self.guests):
            dirs[self.session_dir / f"dom{did}" / "samples"] = did
        return self._write_sample_files(dirs)

    # -- chain construction --------------------------------------------

    def domain_chain(
        self,
        domain_id: int,
        quarantined: Iterable[int] = (),
        strict: bool = True,
    ) -> ResolverChain:
        """A fresh VIProf chain for one guest (kernel → JIT epoch maps →
        boot image → task VMAs), with its own counters.

        ``quarantined`` epochs become barriers in the domain's code-map
        index (exactly what its salvage report prescribes); pair with
        ``strict=False`` to resolve a salvaged domain in degraded mode.
        """
        try:
            g = self.guests[domain_id]
        except KeyError:
            raise ProfilerError(
                f"no domain {domain_id} in this run "
                f"(domains: {', '.join(map(str, sorted(self.guests)))})"
            ) from None
        if g.map_dir.is_dir():
            codemaps = CodeMapIndex.load_dir(
                g.map_dir, quarantined=tuple(quarantined)
            )
        else:
            codemaps = CodeMapIndex({})
        machine = g.vm.machine
        lo, hi = machine.heap.bounds
        return viprof_chain(
            g.kernel,
            codemaps,
            machine.boot.rvm_map,
            (VmRegistration(g.vm.task_id, lo, hi),),
            strict=strict,
        )

    def fleet_chain(
        self,
        quarantined: Mapping[int, Iterable[int]] | None = None,
        strict: bool = True,
    ) -> ResolverChain:
        """The full multi-stack chain: hypervisor stage over a fresh
        per-domain dispatch.  ``quarantined`` maps domain id to that
        domain's barrier epochs; unlisted domains get clean chains."""
        quarantined = dict(quarantined or {})
        return xen_chain(
            self.hypervisor,
            {
                did: self.domain_chain(
                    did, quarantined.get(did, ()), strict=strict
                )
                for did in sorted(self.guests)
            },
        )

    # -- in-memory reports ---------------------------------------------

    def domain_report(self, domain_id: int) -> ProfileReport:
        """Per-domain profile: that guest's samples plus hypervisor work
        performed while it ran (XenoProf's per-domain view)."""
        chain = xen_chain(
            self.hypervisor, {domain_id: self.domain_chain(domain_id)}
        )
        stream = (s for s in self.buffer.samples if s.domain_id == domain_id)
        agg = StreamingAggregator()
        for resolved in chain.resolve_stream(stream):
            agg.add(resolved)
        return agg.report()

    def unified_report(self) -> ProfileReport:
        """One vertically *and horizontally* integrated profile: every
        domain's stack plus the hypervisor, in one listing.  Symbols are
        prefixed with their domain so identical guest symbols stay
        distinguishable."""
        agg = StreamingAggregator()
        samples = self.buffer.samples
        for s, r in zip(samples, self.fleet_chain().resolve_stream(samples)):
            if self.hypervisor.is_xen_address(s.raw.pc):
                prefix = "xen"
            else:
                prefix = f"dom{s.domain_id}"
            agg.add(
                ResolvedSample(
                    raw=r.raw, image=f"{prefix}:{r.image}", symbol=r.symbol
                )
            )
        return agg.report()

    def xen_share(self) -> float:
        """Fraction of all samples that landed in the hypervisor itself."""
        if not len(self.buffer):
            return 0.0
        return self.buffer.xen_samples / len(self.buffer)


class MultiStackEngine:
    """Runs N guest stacks under the hypervisor with XenoProf attached."""

    def __init__(
        self,
        specs: list[GuestSpec],
        period: int = 90_000,
        time_scale: float = 1.0,
        *,
        session_dir: Path | str,
        seed: int = 7,
    ) -> None:
        if not specs:
            raise ConfigError("at least one guest stack is required")
        self.hypervisor = Hypervisor()
        self.vcpu_sched = VcpuScheduler(self.hypervisor)
        self.cpu = CPU()
        self.buffer = XenoProfBuffer()
        self.config = OprofileConfig.paper_config(period)
        self.session_dir = Path(session_dir)
        self.seed = seed
        self._current_domain: int = 0
        self._nmi_truth = TruthLabel(
            Layer.KERNEL, self.hypervisor.image.name, "xenoprof_handle_nmi"
        )
        self.guests: dict[int, _Guest] = {}
        for spec in specs:
            g = self._build_guest(spec, time_scale)
            self.guests[g.domain.domain_id] = g

        for espec in self.config.events:
            self.cpu.counters.program(espec.to_counter_config())
        self.cpu.nmi.register(self._handle_nmi)

    # ------------------------------------------------------------------

    def _build_guest(self, spec: GuestSpec, time_scale: float) -> _Guest:
        wl = spec.workload
        domain = self.hypervisor.create_domain(wl.name, weight=spec.weight)
        did = domain.domain_id
        kernel = Kernel()
        map_dir = self.session_dir / f"dom{did}" / "jit-maps"
        process, machine = build_jvm_stack(
            kernel, wl, spec.seed ^ (wl.seed << 8) ^ (did << 17),
            agent=lambda pid, epoch: ViprofVmAgent(writer=CodeMapWriter(map_dir)),
        )
        vm = VmExecutor(
            self.cpu, machine, spec.seed ^ did,
            budget=wl.budget_cycles(time_scale), task_id=process.pid,
            nmi_truth=self._nmi_truth,
        )
        return _Guest(domain, kernel, vm, map_dir)

    # ------------------------------------------------------------------

    def _handle_nmi(self, frame: InterruptFrame) -> int:
        in_xen = self.hypervisor.is_xen_address(frame.pc)
        guest = self.guests[self._current_domain]
        self.buffer.append(
            XenoSample(
                raw=RawSample(
                    pc=frame.pc,
                    event_name=frame.event_name,
                    task_id=frame.task_id,
                    kernel_mode=frame.mode is CpuMode.KERNEL,
                    cycle=frame.cycle,
                    epoch=guest.vm.machine.epoch,
                ),
                domain_id=self._current_domain,
            ),
            in_xen=in_xen,
        )
        return XEN_NMI_HANDLER_CYCLES

    def _exec_xen(self, symbol: str, cycles: int) -> None:
        pc = self.hypervisor.xen_pc(symbol)
        sym = self.hypervisor.image.find_symbol(symbol)
        counts = EventCounts(cycles=cycles, instructions=cycles // 2)
        self.cpu.execute(pc, sym.size, counts, CpuMode.KERNEL)

    def _tear_newest_map_effect(self, guest: _Guest):
        """Damage effect for :data:`~repro.faults.GUEST_MAP_TEAR`: cut the
        guest's newest epoch map three characters into its last record
        line — the partial state a crash mid-emission leaves, malformed
        enough that salvage must quarantine the epoch (a cut at a line
        boundary would instead *parse* as a silently shorter map)."""

        def effect(rng) -> None:
            if not guest.map_dir.is_dir():
                return
            maps = map_files(guest.map_dir)
            if not maps:
                return
            _, path = maps[-1]
            data = path.read_bytes()
            cut = data.rstrip(b"\n").rfind(b"\n")
            if cut < 0:
                return
            path.write_bytes(data[: cut + 1 + 3])

        return effect

    def _kill_guest(self, guest: _Guest, fault: InjectedFault) -> None:
        """An injected fault inside one guest kills that guest only: the
        domain stops being scheduled (and never runs its final flush, so
        its current epoch's map stays unwritten), while the hypervisor,
        the sample buffer, and every sibling domain carry on."""
        guest.killed = fault
        guest.domain.finished = True

    def _take_guest_chunk(self, guest: _Guest) -> None:
        """Execute one chunk of the guest's current activity; a chunk of
        agent work may tear the newest map first."""
        vm = guest.vm
        if vm.current.kind is StepKind.AGENT and faults.armed():
            faults.fire(
                faults.GUEST_MAP_TEAR, self._tear_newest_map_effect(guest)
            )
        vm.take_chunks(self.cpu.cycle + 1)

    # ------------------------------------------------------------------

    def run(self) -> MultiStackResult:
        """Time-slice the guests until every one has finished.  A guest's
        executor runs one chunk at a time, so ``GUEST_KILL`` fires before
        every chunk and before the next activity is drawn."""
        next_timer = XEN_TIMER_PERIOD
        while True:
            domain = self.vcpu_sched.pick()
            if domain is None:
                break
            guest = self.guests[domain.domain_id]
            vm = guest.vm
            self._current_domain = domain.domain_id

            # World switch into the guest.
            self._exec_xen("context_switch", Hypervisor.WORLD_SWITCH_CYCLES)
            self.hypervisor.world_switches += 1

            slice_end = self.cpu.cycle + self.vcpu_sched.slice_cycles
            start = self.cpu.cycle
            try:
                while (
                    self.cpu.cycle < slice_end
                    and vm.workload_cycles < vm.budget
                ):
                    if self.cpu.cycle >= next_timer:
                        self._exec_xen(
                            "vmx_vmexit_handler",
                            Hypervisor.TIMER_VMEXIT_CYCLES,
                        )
                        self._exec_xen("pit_timer_fn", 140)
                        next_timer += XEN_TIMER_PERIOD
                        continue
                    faults.fire(faults.GUEST_KILL)
                    if vm.current is None:
                        vm.start_run(next(vm.runs))
                    self._take_guest_chunk(guest)
            except InjectedFault as fault:
                self._kill_guest(guest, fault)
            self.vcpu_sched.charge(domain, self.cpu.cycle - start)

            if vm.workload_cycles >= vm.budget and not domain.finished:
                try:
                    for run in vm.machine.finish():
                        vm.start_run(run)
                        while vm.current is not None:
                            self._take_guest_chunk(guest)
                except InjectedFault as fault:
                    self._kill_guest(guest, fault)
                domain.finished = True

        return MultiStackResult(
            hypervisor=self.hypervisor,
            buffer=self.buffer,
            guests=self.guests,
            wall_cycles=self.cpu.cycle,
            session_dir=self.session_dir,
            config=self.config,
        )

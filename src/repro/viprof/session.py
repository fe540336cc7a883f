"""One-stop VIProf session wiring.

A session owns the kernel module, the runtime profiler (extended daemon),
the code-map writer, and hands out the VM agent that gets hooked into the
JVM.  The system engine drives a session's lifecycle; users get reports
from :meth:`ViprofSession.report` after the run.

Directory layout under ``session_dir``::

    samples/            per-event sample files (daemon output)
    jit-maps/           per-epoch partial code maps (agent output)
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.errors import CodeMapError, ProfilerError
from repro.faults import injector as faults
from repro.hardware.cpu import CPU
from repro.jvm.bootimage import RvmMap
from repro.oprofile.daemon import DaemonCosts, DaemonWork
from repro.oprofile.kmodule import OprofileKernelModule
from repro.oprofile.opcontrol import OprofileConfig
from repro.os.kernel import Kernel
from repro.viprof.codemap import CodeMapIndex, CodeMapWriter
from repro.viprof.postprocess import ViprofReport
from repro.viprof.runtime_profiler import ViprofRuntimeProfiler
from repro.viprof.salvage import SalvageManifest, load_manifest, salvage_session
from repro.viprof.vm_agent import AgentCosts, ViprofVmAgent

__all__ = ["ViprofSession"]


class ViprofSession:
    """The VIProf stack for one profiling run."""

    def __init__(
        self,
        kernel: Kernel,
        config: OprofileConfig,
        session_dir: Path | str,
        daemon_costs: DaemonCosts | None = None,
        agent_costs: AgentCosts | None = None,
        full_map_rewrite: bool = False,
        eager_move_logging: bool = False,
        jit_fast_path: bool = True,
        write_buffer_bytes: int | None = None,
    ) -> None:
        """The three boolean knobs select the ablation variants studied in
        ``benchmarks/bench_ablation.py``; the defaults are the paper's
        design.  ``write_buffer_bytes`` tunes the daemon's write batching
        (simulator wall-clock only — session bytes and cycle accounting
        are identical either way)."""
        self.kernel = kernel
        self.config = config
        self.session_dir = Path(session_dir)
        self.sample_dir = self.session_dir / "samples"
        self.map_dir = self.session_dir / "jit-maps"
        self.kmodule = OprofileKernelModule(config)
        self.daemon = ViprofRuntimeProfiler(
            kernel, self.kmodule, config, self.sample_dir,
            costs=daemon_costs, jit_fast_path=jit_fast_path,
            write_buffer_bytes=write_buffer_bytes,
        )
        self.map_writer = CodeMapWriter(self.map_dir)
        self._agent_costs = agent_costs
        self._full_map_rewrite = full_map_rewrite
        self._eager_move_logging = eager_move_logging
        self._agent: ViprofVmAgent | None = None
        self._active = False

    # ------------------------------------------------------------------

    def make_agent(
        self, vm_task_id: int, epoch_source: Callable[[], int]
    ) -> ViprofVmAgent:
        """Create the VM agent to hook into the JVM (one per session)."""
        if self._agent is not None:
            raise ProfilerError("session already has a VM agent")
        self._agent = ViprofVmAgent(
            writer=self.map_writer,
            runtime_profiler=self.daemon,
            epoch_source=epoch_source,
            vm_task_id=vm_task_id,
            costs=self._agent_costs,
            full_map_rewrite=self._full_map_rewrite,
            eager_move_logging=self._eager_move_logging,
        )
        return self._agent

    @property
    def agent(self) -> ViprofVmAgent:
        if self._agent is None:
            raise ProfilerError("make_agent() has not been called")
        return self._agent

    # ------------------------------------------------------------------

    def start(self, cpu: CPU) -> None:
        if self._active:
            raise ProfilerError("session already started")
        self.kmodule.setup(cpu)
        self.daemon.start()
        self._active = True

    def stop(self) -> DaemonWork:
        """Final daemon drain + kernel-module shutdown."""
        if not self._active:
            raise ProfilerError("session not started")
        if faults.armed():
            # Crash point at teardown, before the final drain: the
            # undrained kernel buffer and writer-buffered records are lost.
            faults.fire(
                faults.SESSION_TEARDOWN,
                effect=lambda rng: self.daemon._abandon_writers(),
            )
        work = self.daemon.stop()
        self.kmodule.shutdown()
        self._active = False
        self._write_summary()
        self._build_arena()
        return work

    def _build_arena(self) -> None:
        """Compile the epoch maps into the zero-copy arena
        (:mod:`repro.viprof.arena`) so post-processing — this process or
        any later ``viprof report`` — skips the text parse.  The arena is
        a derived cache: if compiling fails the session is still whole,
        so the failure is swallowed and readers parse the text maps.
        (An injected ``arena.write`` crash is *not* swallowed — it
        simulates the process dying here.)"""
        from repro.viprof.arena import build_arena

        try:
            build_arena(self.map_dir)
        except (CodeMapError, OSError):
            pass

    def _write_summary(self) -> None:
        """Leave the collection-side summary (unified session-metrics
        model) next to the artifacts.  Only a *clean* teardown reaches
        this — a crashed session has no ``summary.json``, and statcheck's
        VP110 holds an existing one to the artifacts actually on disk."""
        from repro.metrics.build import collection_summary
        from repro.metrics.model import SUMMARY_NAME

        regs = self.daemon.registrations
        summary = collection_summary(
            self.sample_dir,
            self.daemon.stats,
            buffer_lost=self.kmodule.buffer.lost,
            overhead=self.daemon.overhead_panel(),
            registration=regs[0] if regs else None,
        )
        summary.save(self.session_dir / SUMMARY_NAME)

    # ------------------------------------------------------------------

    def report(
        self,
        rvm_map: RvmMap,
        backward_traversal: bool = True,
    ) -> ViprofReport:
        """Build the extended post-processor over this session's artifacts."""
        codemaps = CodeMapIndex.load_dir(self.map_dir)
        return ViprofReport(
            kernel=self.kernel,
            sample_dir=self.sample_dir,
            codemaps=codemaps,
            rvm_map=rvm_map,
            registrations=self.daemon.registrations,
            backward_traversal=backward_traversal,
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------

    def salvage(self, dry_run: bool = False) -> SalvageManifest:
        """Repair this session's directory after a simulated crash.

        Completes the process death first if the session is still marked
        active (dropping writer-buffered records, releasing the sample
        files, shutting the kernel module down), then delegates to
        :func:`repro.viprof.salvage.salvage_session`.
        """
        if self._active:
            self.daemon.crash()
            self.kmodule.shutdown()
            self._active = False
        return salvage_session(self.session_dir, dry_run=dry_run)

    def recovered_report(
        self,
        rvm_map: RvmMap,
        manifest: SalvageManifest | None = None,
        backward_traversal: bool = True,
    ) -> ViprofReport:
        """Build the degraded (``strict=False``) post-processor over a
        salvaged session: quarantined epochs act as barriers in the
        backward walk, and blocked samples show up in the ``degraded``
        stats instead of being misattributed."""
        if manifest is None:
            manifest = load_manifest(self.session_dir)
        if manifest is None:
            raise ProfilerError(
                f"{self.session_dir}: no salvage manifest — run salvage() "
                "first"
            )
        codemaps = CodeMapIndex.load_dir(
            self.map_dir, quarantined=manifest.quarantined_epochs
        )
        return ViprofReport(
            kernel=self.kernel,
            sample_dir=self.sample_dir,
            codemaps=codemaps,
            rvm_map=rvm_map,
            registrations=self.daemon.registrations,
            backward_traversal=backward_traversal,
            strict=False,
        )

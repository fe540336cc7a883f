"""Session archiving (the ``oparchive`` capability).

Real OProfile separates *collection* from *analysis*: ``oparchive`` copies
a session's sample files (plus the binaries needed to resolve them) so
reports can be regenerated later or elsewhere.  Our resolution context — a
process's mappings, the kernel symbol table, the boot image — is built
deterministically by the engine, so an archive needs only the sample
files, the VIProf code maps, and a small metadata record; analysis rebuilds
the machine state (without running it) and resolves against the archived
artifacts.

This also unlocks cross-session workflows: archive two configurations of
the same benchmark and compare them with :meth:`SessionStore.diff`, which
hands both reports' summaries to :func:`~repro.metrics.analyze.analyze`.
Reading an archive never writes into it: the rebuilt engine lives in a
temporary directory for the length of one report.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ProfilerError
from repro.jvm.bootimage import build_boot_image
from repro.metrics.analyze import AnalysisResult, analyze
from repro.metrics.build import summary_from_report
from repro.oprofile.opcontrol import OprofileConfig
from repro.oprofile.opreport import OpReport
from repro.profiling.report import ProfileReport
from repro.system.engine import EngineConfig, ProfilerMode, RunResult, SystemEngine
from repro.viprof.codemap import CodeMapIndex
from repro.viprof.postprocess import ViprofReport
from repro.viprof.runtime_profiler import VmRegistration
from repro.workloads.base import by_name

__all__ = ["ArchivedSession", "SessionStore"]

_META_NAME = "meta.json"


@dataclass(frozen=True)
class ArchivedSession:
    """One archived profiling session."""

    label: str
    path: Path
    meta: dict

    @property
    def benchmark(self) -> str:
        return self.meta["benchmark"]

    @property
    def mode(self) -> str:
        return self.meta["mode"]

    @property
    def period(self) -> int:
        return self.meta["period"]


class SessionStore:
    """Directory of archived sessions."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------

    def archive(self, result: RunResult, label: str) -> ArchivedSession:
        """Copy a profiled run's artifacts under ``label``.

        Raises:
            ProfilerError: for unprofiled runs or duplicate labels.
        """
        if result.sample_dir is None or result.session_dir is None:
            raise ProfilerError("cannot archive an unprofiled run")
        dest = self.root / label
        if dest.exists():
            raise ProfilerError(f"session label {label!r} already exists")
        dest.mkdir(parents=True)
        shutil.copytree(result.sample_dir, dest / "samples")
        maps_src = result.session_dir / "jit-maps"
        if maps_src.is_dir():
            shutil.copytree(maps_src, dest / "jit-maps")
        assert result.config.profile_config is not None
        reg = None
        if result.viprof_session is not None:
            regs = result.viprof_session.daemon.registrations
            if regs:
                reg = {
                    "task_id": regs[0].task_id,
                    "heap_low": regs[0].heap_low,
                    "heap_high": regs[0].heap_high,
                }
        meta = {
            "benchmark": result.workload_name,
            "mode": result.mode.value,
            "period": result.config.profile_config.primary_period,
            "seed": result.config.seed,
            "time_scale": result.config.time_scale,
            "wall_cycles": result.wall_cycles,
            "registration": reg,
        }
        (dest / _META_NAME).write_text(json.dumps(meta, indent=2))
        return ArchivedSession(label=label, path=dest, meta=meta)

    def sessions(self) -> list[ArchivedSession]:
        out = []
        for d in sorted(self.root.iterdir()):
            meta_path = d / _META_NAME
            if d.is_dir() and meta_path.is_file():
                out.append(
                    ArchivedSession(
                        label=d.name, path=d,
                        meta=json.loads(meta_path.read_text()),
                    )
                )
        return out

    def get(self, label: str) -> ArchivedSession:
        for s in self.sessions():
            if s.label == label:
                return s
        raise ProfilerError(f"no archived session {label!r}")

    # ------------------------------------------------------------------

    def report(self, label: str) -> ProfileReport:
        """Regenerate the session's report from archived artifacts.

        The resolution context (kernel symbols, process mappings, boot
        image) is rebuilt deterministically by constructing — *not*
        running — the same engine configuration, in a temporary session
        directory removed on return.
        """
        s = self.get(label)
        with tempfile.TemporaryDirectory(prefix="viprof-rebuild-") as tmp:
            kernel = self._rebuild_engine(s, Path(tmp)).kernel
            if s.mode != ProfilerMode.VIPROF.value:
                return OpReport(kernel, s.path / "samples").generate()
            reg = VmRegistration.parse(s.meta.get("registration"))
            if reg is None:
                raise ProfilerError(
                    f"archive {label!r} lacks a VM registration record"
                )
            post = ViprofReport(
                kernel=kernel,
                sample_dir=s.path / "samples",
                codemaps=CodeMapIndex.load_dir(s.path / "jit-maps"),
                rvm_map=build_boot_image().rvm_map,
                registrations=(reg,),
            )
            return post.generate()

    def diff(
        self, label_before: str, label_after: str, event: str | None = None
    ) -> AnalysisResult:
        """Compare two archived sessions' reports with ``analyze``."""
        return analyze(
            summary_from_report(self.report(label_before)),
            summary_from_report(self.report(label_after)),
            event=event,
            a_label=label_before,
            b_label=label_after,
        )

    # ------------------------------------------------------------------

    def _rebuild_engine(self, s: ArchivedSession, tmp: Path) -> SystemEngine:
        cfg = EngineConfig(
            mode=ProfilerMode(s.mode),
            profile_config=OprofileConfig.paper_config(s.period),
            session_dir=tmp,
            seed=s.meta["seed"],
            time_scale=s.meta["time_scale"],
        )
        return SystemEngine(by_name(s.benchmark), cfg)

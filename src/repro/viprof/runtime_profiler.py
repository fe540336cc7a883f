"""The VIProf runtime profiler — the extended OProfile daemon.

Paper §3: "We extend this daemon by a mechanism that allows a VM to register
the fact that it is executing dynamically generated code.  The virtual
machine also registers the boundaries of its memory heap.  Within the
daemon, the logging code will consult this information before deciding to
log a sample as being anonymous.  Instead, if it is found to fall within the
boundaries of the VM's heap, the sample will be logged as a JIT.App sample."

Concretely, relative to :class:`repro.oprofile.daemon.OprofileDaemon`:

* :meth:`register_vm` records per-task heap boundaries and installs the
  VM's epoch counter as the kernel module's epoch source, so every sample
  is stamped with the GC epoch it was taken in;
* :meth:`classify_chunk` checks registered heap bounds *before* falling
  through to the anonymous path; a hit takes the cheap ``jit_classify``
  cost path
  instead of the expensive ``anon_extra`` one (this replacement is why
  VIProf sometimes runs *faster* than stock OProfile — Figure 2 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ProfilerError
from repro.oprofile.daemon import OprofileDaemon
from repro.profiling.model import RawSample

__all__ = ["VmRegistration", "ViprofRuntimeProfiler"]


@dataclass(frozen=True, slots=True)
class VmRegistration:
    """One VM's registration with the runtime profiler."""

    task_id: int
    heap_low: int
    heap_high: int

    def covers(self, pc: int) -> bool:
        return self.heap_low <= pc < self.heap_high

    @classmethod
    def parse(cls, block: object) -> "VmRegistration | None":
        """The registration a session's metadata records (the
        ``registration`` block of ``meta.json`` or of a summary's meta),
        or None when the block is absent or malformed."""
        if not isinstance(block, dict):
            return None
        try:
            return cls(
                task_id=int(block["task_id"]),
                heap_low=int(block["heap_low"]),
                heap_high=int(block["heap_high"]),
            )
        except (KeyError, TypeError, ValueError):
            return None


class ViprofRuntimeProfiler(OprofileDaemon):
    """OProfile daemon + VM heap registration + epoch stamping."""

    def __init__(self, *args, jit_fast_path: bool = True, **kwargs) -> None:
        """``jit_fast_path=False`` is the ablation: VM heaps are still
        registered (so epochs are stamped and post-processing can resolve),
        but the daemon logs heap samples through the stock anonymous path,
        forfeiting the cost saving the paper credits to the bounds check."""
        super().__init__(*args, **kwargs)
        self.jit_fast_path = jit_fast_path
        self._registrations: dict[int, VmRegistration] = {}

    # ------------------------------------------------------------------

    def register_vm(
        self,
        task_id: int,
        heap_bounds: tuple[int, int],
        epoch_source: Callable[[], int] | None = None,
    ) -> VmRegistration:
        """Called by the VM agent at VM startup."""
        lo, hi = heap_bounds
        if hi <= lo:
            raise ProfilerError(f"bad heap bounds [{lo:#x}, {hi:#x})")
        if task_id in self._registrations:
            raise ProfilerError(f"task {task_id} already registered a VM heap")
        reg = VmRegistration(task_id=task_id, heap_low=lo, heap_high=hi)
        self._registrations[task_id] = reg
        if epoch_source is not None:
            self.kmodule.epoch_source = epoch_source
        return reg

    @property
    def registrations(self) -> tuple[VmRegistration, ...]:
        return tuple(self._registrations.values())

    def registration_for(self, task_id: int) -> VmRegistration | None:
        return self._registrations.get(task_id)

    # ------------------------------------------------------------------

    def classify_chunk(self, samples: list[RawSample]) -> list[str]:
        """Heap-bounds check over whole runs before stock classification.

        Samples arrive in capture order, so consecutive records usually
        share a task; the registration lookup is done once per run of
        same-task samples, and only the samples that miss the heap fall
        through to the stock chunk classifier.
        """
        if not self.jit_fast_path or not self._registrations:
            return super().classify_chunk(samples)
        regs = self._registrations
        cats: list[str | None] = [None] * len(samples)
        rest: list[RawSample] = []
        rest_idx: list[int] = []
        i, n = 0, len(samples)
        while i < n:
            tid = samples[i].task_id
            j = i + 1
            while j < n and samples[j].task_id == tid:
                j += 1
            reg = regs.get(tid)
            if reg is None:
                for k in range(i, j):
                    rest.append(samples[k])
                    rest_idx.append(k)
            else:
                for k in range(i, j):
                    s = samples[k]
                    if not s.kernel_mode and reg.covers(s.pc):
                        cats[k] = self.JIT
                    else:
                        rest.append(s)
                        rest_idx.append(k)
            i = j
        if rest:
            for k, cat in zip(rest_idx, super().classify_chunk(rest)):
                cats[k] = cat
        return cats  # type: ignore[return-value]

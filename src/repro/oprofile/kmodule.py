"""The OProfile kernel module.

Responsibilities reproduced from the real driver:

1. program the hardware counters from the user's configuration;
2. handle counter-overflow NMIs: read the interrupted PC, note the current
   task and privilege mode, and append a sample record to a bounded ring
   buffer (samples arriving into a full buffer are *lost* and counted, as in
   the real driver's ``sample_lost_overflow`` statistic);
3. expose the buffer for the user-level daemon to drain.

Each NMI costs :data:`NMI_HANDLER_CYCLES` — this, times the sampling rate,
is the frequency-dependent part of profiling overhead in Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProfilerError
from repro.hardware.cpu import CPU
from repro.hardware.interrupts import CpuMode, InterruptFrame
from repro.oprofile.opcontrol import OprofileConfig
from repro.profiling.model import RawSample

__all__ = ["SampleBuffer", "OprofileKernelModule", "NMI_HANDLER_CYCLES"]

#: Cost of one NMI delivery + sample capture (register save, counter read,
#: buffer append, counter reload, iret).  Identical for OProfile and VIProf —
#: the VIProf changes are all daemon-side.
NMI_HANDLER_CYCLES = 1100


@dataclass
class SampleBuffer:
    """Bounded ring buffer between NMI context and the daemon."""

    capacity: int
    _samples: list[RawSample] = field(default_factory=list)
    lost: int = 0
    total_captured: int = 0
    #: samples captured per event, in order of each event's first capture
    captured_by_event: dict[str, int] = field(default_factory=dict)

    def append(self, sample: RawSample) -> bool:
        """Append a sample; returns False (and counts a loss) when full."""
        if len(self._samples) >= self.capacity:
            self.lost += 1
            return False
        self._samples.append(sample)
        self.total_captured += 1
        event = sample.event_name
        self.captured_by_event[event] = self.captured_by_event.get(event, 0) + 1
        return True

    def drain(self, max_records: int | None = None) -> list[RawSample]:
        """Atomically take buffered samples, oldest first.

        ``max_records=None`` takes everything (the original behaviour);
        otherwise at most ``max_records`` are removed, which is how the
        daemon drains the buffer in bounded chunks per wakeup.
        """
        if max_records is None or max_records >= len(self._samples):
            out = self._samples
            self._samples = []
        elif max_records <= 0:
            out = []
        else:
            out = self._samples[:max_records]
            del self._samples[:max_records]
        return out

    def __len__(self) -> int:
        return len(self._samples)


class OprofileKernelModule:
    """Counter programming plus the NMI sample-capture path."""

    def __init__(self, config: OprofileConfig) -> None:
        self.config = config
        self.buffer = SampleBuffer(capacity=config.buffer_capacity)
        self._cpu: CPU | None = None
        self.active = False
        #: Optional callable returning the GC epoch to stamp on a sample;
        #: installed by VIProf's runtime profiler (stock OProfile leaves it
        #: unset and samples carry epoch -1).
        self.epoch_source = None

    def setup(self, cpu: CPU) -> None:
        """Program the counters and hook the NMI line (``opcontrol --start``)."""
        if self.active:
            raise ProfilerError("kernel module already active")
        for spec in self.config.events:
            cpu.counters.program(spec.to_counter_config())
        cpu.nmi.register(self._handle_nmi)
        self._cpu = cpu
        self.active = True

    def shutdown(self) -> None:
        """Detach from the CPU (``opcontrol --shutdown``)."""
        if not self.active:
            return
        assert self._cpu is not None
        self._cpu.nmi.unregister()
        self._cpu.counters.clear()
        self.active = False

    # ------------------------------------------------------------------

    def _handle_nmi(self, frame: InterruptFrame) -> int:
        epoch = -1
        if self.epoch_source is not None:
            epoch = self.epoch_source()
        self.buffer.append(
            RawSample(
                pc=frame.pc,
                event_name=frame.event_name,
                task_id=frame.task_id,
                kernel_mode=frame.mode is CpuMode.KERNEL,
                cycle=frame.cycle,
                epoch=epoch,
            )
        )
        return NMI_HANDLER_CYCLES

"""The OProfile baseline.

A faithful model of the OProfile 0.9-era pipeline the paper extends:

* :mod:`repro.oprofile.opcontrol` — configuration and validation
  (events, periods, buffer sizing, daemon wakeup period);
* :mod:`repro.oprofile.kmodule` — the kernel module: programs the counter
  bank, handles counter-overflow NMIs, and fills a bounded ring buffer
  (overflow drops are counted, as in the real driver);
* :mod:`repro.oprofile.daemon` — the user-level daemon: wakes periodically,
  drains the buffer, attributes each sample to a mapping (file-backed,
  kernel, or *anonymous*) and appends it to per-event sample files; its
  per-sample costs are the heart of the paper's overhead comparison;
* :mod:`repro.oprofile.opreport` — offline post-processing: sample files →
  symbol-level report, as a composition of the streaming pipeline's
  kernel and task-VMA stages (:mod:`repro.pipeline`).  Stock opreport
  leaves anonymous-region samples (i.e. all JIT code) unsymbolized — the
  limitation VIProf removes;
* arc-recording call-graph profiles live in :mod:`repro.pipeline.callgraph`
  (one recorder shared with VIProf).
"""

from repro.oprofile.opcontrol import OprofileConfig, EventSpec
from repro.oprofile.kmodule import OprofileKernelModule, SampleBuffer
from repro.oprofile.daemon import DaemonCosts, OprofileDaemon, build_daemon_image
from repro.oprofile.opreport import OpReport
from repro.pipeline.callgraph import CallArc, CallGraphRecorder

__all__ = [
    "OprofileConfig",
    "EventSpec",
    "OprofileKernelModule",
    "SampleBuffer",
    "OprofileDaemon",
    "DaemonCosts",
    "build_daemon_image",
    "OpReport",
    "CallArc",
    "CallGraphRecorder",
]

"""VIProf — the paper's contribution.

Four cooperating pieces extend the OProfile baseline into a vertically
integrated profiler:

* :mod:`repro.viprof.codemap` — epoch-stamped JIT code-map files and the
  backward-traversal resolution algorithm (§3.1–3.2 of the paper);
* :mod:`repro.viprof.vm_agent` — the VM agent library hooked into the JVM's
  compile/recompile and GC-move paths; logs compilations, *flags* GC moves,
  and writes a partial code map just before each collection;
* :mod:`repro.viprof.runtime_profiler` — the extended OProfile daemon: the
  VM registers its heap boundaries, and samples falling inside them take a
  cheap JIT-classification path (replacing the expensive anonymous-region
  path) and carry a GC-epoch stamp;
* :mod:`repro.viprof.postprocess` — the extended report tools: the
  streaming pipeline's chain (:mod:`repro.pipeline`) with the JIT-epoch
  and boot-image stages composed in, resolving JIT samples through the
  epoch code maps (searching backwards from the sample's epoch) and VM
  samples through the Jikes RVM boot-image map.

:mod:`repro.viprof.session` wires everything together behind one object.
"""

from repro.viprof.codemap import CodeMapIndex, CodeMapRecord, CodeMapWriter
from repro.viprof.vm_agent import AgentCosts, ViprofVmAgent
from repro.viprof.runtime_profiler import ViprofRuntimeProfiler
from repro.viprof.postprocess import ViprofReport
from repro.pipeline.callgraph import CrossLayerCallGraph
from repro.viprof.session import ViprofSession

__all__ = [
    "CodeMapIndex",
    "CodeMapRecord",
    "CodeMapWriter",
    "AgentCosts",
    "ViprofVmAgent",
    "ViprofRuntimeProfiler",
    "ViprofReport",
    "CrossLayerCallGraph",
    "ViprofSession",
]

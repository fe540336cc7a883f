"""Future-work extension: Xen-layer profiling (XenoProf integration).

The paper's §5: "we plan to integrate Xen virtualization extensions into
VIProf to integrate profiling of the Xen layer (via XenoProf) as well as
multiple concurrently executing software stacks."

This package builds that system on the same substrate:

* :mod:`repro.xen.hypervisor` — a Xen-like hypervisor: its own symbol
  table above the guest kernels, domains, a credit-style VCPU scheduler,
  and VMEXIT/hypercall cost accounting;
* :mod:`repro.xen.xenoprof` — XenoProf-style sampling: the counter
  overflow handler runs *in the hypervisor* and tags every sample with
  the currently-running domain;
* :mod:`repro.xen.engine` — a multi-stack engine running several isolated
  guest stacks (each a kernel + Jikes-RVM-like VM + workload) time-sliced
  over one physical CPU, the execution model the VIVA project targets.
  Its result builds each guest's resolver chain on demand (through the
  domain's VIProf code maps and boot-image map, behind a hypervisor
  stage, with quarantine + degraded modes) and persists the ``XPRS``
  sample files;
* :mod:`repro.xen.fleet` — many-guest fleet sessions: the per-domain
  session layout, file-backed per-domain/fleet resolution, and
  per-domain salvage.
"""

from repro.xen.hypervisor import Domain, Hypervisor, VcpuScheduler, XEN_BASE
from repro.xen.xenoprof import XenoProfBuffer, XenoSample
from repro.xen.engine import GuestSpec, MultiStackEngine, MultiStackResult
from repro.xen.fleet import FleetSession, run_fleet

__all__ = [
    "Domain",
    "Hypervisor",
    "VcpuScheduler",
    "XEN_BASE",
    "XenoSample",
    "XenoProfBuffer",
    "GuestSpec",
    "MultiStackEngine",
    "MultiStackResult",
    "FleetSession",
    "run_fleet",
]

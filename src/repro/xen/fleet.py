"""Fleet sessions: many-guest runs with per-domain salvage and resolve.

This is the scale-out face of the multi-stack engine.  A
:class:`FleetSession` wraps one finished
:class:`~repro.xen.engine.MultiStackResult` whose artifacts were saved in
the *fleet layout*:

.. code-block:: text

    session/
      samples/                     # root stream: all domains, per event
        xenoprof.<EVENT>.samples
      dom<N>/                      # one complete sub-session per guest
        samples/xenoprof.<EVENT>.samples
        jit-maps/jit-map.<epoch>

The root stream is what dom0's daemon drains from the hypervisor's
shared buffer; the per-domain sub-sessions are exact partitions of it in
buffer order, each independently loadable — and independently
*salvageable* — as a standard VIProf session directory.  That layout is
what makes guest-kill isolation mechanical: a dead guest's damage is
confined to its own ``dom<N>/`` subtree, and rebuilding its chain with
quarantined epochs never touches a sibling's artifacts.

Resolution streams the session's sample files through the pipeline
(:mod:`repro.pipeline`) with chains from
:meth:`MultiStackResult.domain_chain` and
:meth:`MultiStackResult.fleet_chain`, so fleet reports shard across
workers like any session and their ``stats_dict()`` carries the
per-domain inner-chain counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from repro.pipeline import (
    DirectorySource,
    ResolverChain,
    run_pipeline,
    xen_chain,
)
from repro.profiling.report import ProfileReport
from repro.workloads.base import Workload
from repro.xen.engine import GuestSpec, MultiStackEngine, MultiStackResult

__all__ = ["FleetSession", "run_fleet"]


@dataclass
class FleetSession:
    """One many-guest session: artifacts on disk plus live guest state.

    Every resolution builds fresh chains through the result's
    :meth:`~MultiStackResult.domain_chain`, each with its own counters,
    so a caller can resolve the same session twice (say,
    strict baseline vs degraded post-salvage) without one run's
    statistics bleeding into the other's.
    """

    result: MultiStackResult

    @property
    def session_dir(self) -> Path:
        return self.result.session_dir

    @property
    def domain_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.result.guests))

    @property
    def killed_domains(self) -> tuple[int, ...]:
        return self.result.killed_domains

    def domain_dir(self, domain_id: int) -> Path:
        """The domain's sub-session root (``session/dom<N>``)."""
        return self.session_dir / f"dom{domain_id}"

    # -- sources -------------------------------------------------------

    def source(self) -> DirectorySource:
        """The session's root sample source: one file per event, which
        the shard planner splits at aligned records."""
        return DirectorySource(self.session_dir / "samples")

    def events(self) -> tuple[str, ...]:
        """The session's event columns (deduplicated, time event first)."""
        names = self.source().event_names()
        return tuple(dict.fromkeys(names))

    # -- resolution ----------------------------------------------------

    def resolve(
        self,
        workers: int | str = 1,
        quarantined: Mapping[int, Iterable[int]] | None = None,
        strict: bool = True,
    ) -> tuple[ProfileReport, ResolverChain]:
        """Resolve the whole fleet stream; returns (report, chain).

        The chain is fresh, so ``chain.stats_dict()`` afterwards covers
        exactly this run — including every domain's inner-chain counters
        under the dispatch stage's ``detail``.
        """
        chain = self.result.fleet_chain(quarantined, strict=strict)
        report = run_pipeline(
            self.source(),
            chain,
            events=self.events(),
            workers=workers,
        )
        return report, chain

    def domain_resolve(
        self,
        domain_id: int,
        workers: int | str = 1,
        quarantined: Iterable[int] = (),
        strict: bool = True,
    ) -> tuple[ProfileReport, ResolverChain]:
        """Resolve one domain's sub-session; returns (report, chain).

        The chain is still hypervisor-first (a guest's stream includes
        samples caught while Xen ran on its behalf) but dispatches to
        that single domain only, so the result is bit-for-bit what the
        fleet run attributes to this domain — the comparison the
        guest-kill isolation matrix is built on.
        """
        chain = xen_chain(
            self.result.hypervisor,
            {
                domain_id: self.result.domain_chain(
                    domain_id, quarantined, strict=strict
                )
            },
        )
        sample_dir = self.domain_dir(domain_id) / "samples"
        report = run_pipeline(
            DirectorySource(sample_dir),
            chain,
            events=self.events(),
            workers=workers,
        )
        return report, chain

    # -- salvage -------------------------------------------------------

    def salvage_domain(self, domain_id: int, dry_run: bool = False):
        """Run crash salvage on one guest's sub-session.

        A guest killed before its first GC never created ``jit-maps/``;
        salvage treats that the same as an empty map directory, so it is
        created here rather than special-cased downstream.
        """
        from repro.viprof.salvage import salvage_session

        dom_dir = self.domain_dir(domain_id)
        (dom_dir / "jit-maps").mkdir(parents=True, exist_ok=True)
        return salvage_session(dom_dir, dry_run=dry_run)


def run_fleet(
    workloads: list[Workload],
    period: int = 90_000,
    time_scale: float = 1.0,
    *,
    session_dir: Path | str,
    seed: int = 7,
) -> FleetSession:
    """Run N guest stacks and persist the fleet session layout under
    ``session_dir``."""
    engine = MultiStackEngine(
        [GuestSpec(w) for w in workloads],
        period=period,
        time_scale=time_scale,
        session_dir=session_dir,
        seed=seed,
    )
    result = engine.run()
    result.save_fleet_session()
    return FleetSession(result=result)

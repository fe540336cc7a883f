"""Golden parity for multi-domain ``XPRS`` sessions: the per-sample
oracle (``tests/pipeline/oracle.py``) is the reference, and every
execution strategy — sharded workers (1/2/4), domain chains with and
without a memo, the per-domain sharded file layout — must reproduce its
report bytes *and* its statistics exactly.

Fleet resolution takes the one production path: each bucket goes from
the outer chain's dispatch stage to its domain chain whole, and no
sample is ever resolved on its own (``ResolverChain.resolve``).
"""

import json

import pytest

from repro.pipeline import ResolverChain, run_pipeline, xen_chain
from repro.workloads.fleet import FLEET_PROFILES, fleet_workloads
from repro.xen.fleet import run_fleet
from tests.pipeline.oracle import oracle_report, without_cache

_FLEET_N = 4
_PERIOD = 20_000
_BASE_TIME = 0.1


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_fleet(
        fleet_workloads(_FLEET_N, base_time_s=_BASE_TIME),
        period=_PERIOD,
        session_dir=tmp_path_factory.mktemp("fleet-parity"),
    )


def _oracle(session, sharded):
    report, stats = oracle_report(
        session.result.fleet_chain(), session.source(sharded=sharded),
        events=session.events(),
    )
    return {
        "table": report.format_table(limit=10_000),
        "stats": json.dumps(stats, sort_keys=True),
        "rows": _canonical_rows(report),
        "totals": dict(report.totals),
    }


def _stats(chain):
    return json.dumps(without_cache(chain.stats_dict()), sort_keys=True)


@pytest.fixture(scope="module")
def reference(session):
    """The oracle over the root stream: report bytes + stats."""
    return _oracle(session, sharded=False)


def test_fleet_resolution_never_resolves_per_sample(session, monkeypatch):
    calls = []
    per_sample = ResolverChain.resolve

    def counted(self, sample):
        calls.append(sample)
        return per_sample(self, sample)

    monkeypatch.setattr(ResolverChain, "resolve", counted)
    _, chain = session.resolve()
    assert chain.total_samples > 0
    for did in session.domain_ids:
        session.domain_resolve(did)
    assert calls == []
    # The outer chain has no memo; the domain chains keep theirs.
    assert chain.cache is None
    for inner in chain.stage("domain-dispatch").chains.values():
        assert inner.cache is not None


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("memo", [False, True])
def test_fleet_parity_root_stream(session, reference, workers, memo):
    if memo:
        report, chain = session.resolve(workers=workers)
    else:
        fleet = session.result.fleet_chain()
        domains = fleet.stage("domain-dispatch").chains
        chain = xen_chain(
            session.result.hypervisor,
            {
                d: ResolverChain(c.stages, cache_size=0)
                for d, c in domains.items()
            },
        )
        report = run_pipeline(
            session.source(), chain, events=session.events(),
            workers=workers,
        )
    assert report.format_table(limit=10_000) == reference["table"]
    assert _stats(chain) == reference["stats"]


@pytest.fixture(scope="module")
def sharded_reference(session):
    """The oracle over the per-domain file layout."""
    return _oracle(session, sharded=True)


def _canonical_rows(report):
    """Rows as a sorted multiset — file visit order feeds the
    aggregator's insertion order, which breaks ties in ``format_table``
    between the two layouts, so cross-layout comparison canonicalizes."""
    return sorted(
        (
            row.image,
            row.symbol,
            tuple((ev, row.count(ev)) for ev in sorted(report.events)),
        )
        for row in report.sorted_rows()
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fleet_parity_sharded_layout(session, sharded_reference, workers):
    """The per-domain layout holds the same records in the same
    per-domain order, so resolving it shards across whole domains and
    still reproduces the oracle's bytes and statistics."""
    report, chain = session.resolve(workers=workers, sharded=True)
    assert report.format_table(limit=10_000) == sharded_reference["table"]
    assert _stats(chain) == sharded_reference["stats"]


def test_fleet_layouts_agree(session, reference, sharded_reference):
    """Root stream and per-domain layout resolve to the same profile:
    identical row multisets, totals, and chain statistics — memo blocks
    included, since per-domain record order is preserved by both and the
    domain chains' memos see the same per-domain stream."""
    assert reference["rows"] == sharded_reference["rows"]
    assert reference["totals"] == sharded_reference["totals"]
    assert reference["stats"] == sharded_reference["stats"]
    _, root = session.resolve(workers=1)
    _, sharded = session.resolve(workers=1, sharded=True)
    assert root.stats_dict() == sharded.stats_dict()


def test_fleet_members_cycle_profiles():
    wls = fleet_workloads(len(FLEET_PROFILES) * 2, base_time_s=0.01)
    names = [w.name for w in wls]
    assert names == sorted(names)  # fleet-00, fleet-01, ... stable order
    for i, wl in enumerate(wls):
        assert FLEET_PROFILES[i % len(FLEET_PROFILES)] in wl.name
    # Deterministic in (index, seed): two builds are identical.
    again = fleet_workloads(len(FLEET_PROFILES) * 2, base_time_s=0.01)
    assert [repr(w.methods) for w in again] == [
        repr(w.methods) for w in wls
    ]

"""Regression: per-domain inner-chain statistics must be visible in the
outer fleet chain's ``stats_dict``.

The multi-stack chain dispatches each sample into a per-domain inner
chain; before the fix the inner chains' stage counters (the JIT epoch
split, quarantine losses) were swallowed —
``stats_dict`` showed one opaque ``domain-dispatch`` hit count and the
top-level ``degraded`` flag stayed ``False`` even when an inner chain
ran in degraded mode.  Pinned here:

* the dispatch stage's ``detail`` carries each inner chain's full
  ``stats_dict`` keyed ``dom<N>`` (and :func:`per_domain_stats` lifts
  them out keyed by integer id);
* inner-chain degradation propagates: the dispatch stage aggregates the
  inner ``degraded_dict`` counters and flips the outer chain's
  ``degraded`` flag.
"""

import pytest

from repro.metrics.fleet import per_domain_stats
from repro.workloads.fleet import fleet_workloads
from repro.xen.fleet import run_fleet
from tests.pipeline.oracle import oracle_report

_FLEET_N = 3


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_fleet(
        fleet_workloads(_FLEET_N, base_time_s=0.05),
        period=20_000,
        session_dir=tmp_path_factory.mktemp("fleet-stats"),
    )


def _dispatch_entry(stats):
    return next(
        e for e in stats["stages"] if e["stage"] == "domain-dispatch"
    )


def test_dispatch_detail_exposes_inner_chains(session):
    _report, chain = session.resolve()
    stats = chain.stats_dict()
    detail = _dispatch_entry(stats)["detail"]
    assert sorted(detail) == [f"dom{d}" for d in sorted(session.domain_ids)]
    for did in session.domain_ids:
        sub = detail[f"dom{did}"]
        # Each entry is a complete inner-chain stats_dict.
        assert set(sub) == {"stages", "total_samples", "degraded"}
        assert {e["stage"] for e in sub["stages"]} >= {
            "kernel",
            "jit-epoch",
            "boot-image",
        }


def test_per_domain_stats_lifts_detail_by_integer_id(session):
    _report, chain = session.resolve()
    stats = chain.stats_dict()
    inner = per_domain_stats(stats)
    assert list(inner) == sorted(session.domain_ids)
    detail = _dispatch_entry(stats)["detail"]
    for did, sub in inner.items():
        assert sub is detail[f"dom{did}"]
    # Inner totals partition the dispatch stage's hits exactly.
    assert sum(s["total_samples"] for s in inner.values()) == (
        _dispatch_entry(stats)["hits"]
    )


def test_per_domain_stats_ignores_single_stack_chains(session):
    chain = session.result.domain_chain(session.domain_ids[0])
    assert per_domain_stats(chain.stats_dict()) == {}
    assert per_domain_stats({"stages": "not-a-list"}) == {}


def test_clean_fleet_chain_is_not_degraded(session):
    _report, chain = session.resolve()
    stats = chain.stats_dict()
    assert stats["degraded"] is False
    assert "degraded" not in _dispatch_entry(stats)


def test_inner_degradation_propagates_to_outer_chain(tmp_path):
    # Quarantine every epoch of one domain (deleting its maps, the way
    # salvage leaves a damaged session) and resolve in degraded
    # (non-strict) mode: its JIT samples are blocked at the barrier, and
    # that loss must surface at the outer chain, charged to that domain
    # alone.  Own session — this mutates the on-disk maps.
    session = run_fleet(
        fleet_workloads(_FLEET_N, base_time_s=0.05),
        period=20_000,
        session_dir=tmp_path / "fleet",
    )
    victim = sorted(session.domain_ids)[0]
    maps = sorted((session.domain_dir(victim) / "jit-maps").glob("jit-map.*"))
    assert maps, "victim domain never emitted a code map"
    epochs = tuple(int(p.name.rsplit(".", 1)[1]) for p in maps)
    for p in maps:
        p.unlink()
    _report, chain = session.resolve(
        quarantined={victim: epochs}, strict=False
    )
    stats = chain.stats_dict()
    assert stats["degraded"] is True

    entry = _dispatch_entry(stats)
    inner = per_domain_stats(stats)
    blocked = {}
    for did, sub in inner.items():
        jit = next(e for e in sub["stages"] if e["stage"] == "jit-epoch")
        blocked[did] = jit["detail"]["blocked_at_quarantine"]
        # Non-strict mode is fleet-wide, so every inner chain reports
        # degradation counters — but only the victim's count losses.
        assert sub["degraded"] is True
    assert blocked[victim] > 0
    assert all(n == 0 for did, n in blocked.items() if did != victim)
    assert entry["degraded"] == {
        "blocked_at_quarantine": sum(blocked.values())
    }
    # The per-sample oracle counts the same inner and outer statistics.
    _, reference = oracle_report(
        session.result.fleet_chain(
            quarantined={victim: epochs}, strict=False
        ),
        session.source(),
    )
    assert stats == reference


def test_plain_viprof_chain_detail_is_unchanged(session):
    # The fix touches only the dispatch stage: a single-stack VIProf
    # chain's stats_dict keeps its flat shape (no dom-keyed nesting).
    chain = session.result.domain_chain(session.domain_ids[0])
    stats = chain.stats_dict()
    for e in stats["stages"]:
        detail = e.get("detail")
        if isinstance(detail, dict):
            assert not any(k.startswith("dom") for k in detail)

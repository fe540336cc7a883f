"""The guest-kill isolation matrix: every guest-scoped fault point ×
kill position, salvaged back without perturbing any sibling domain.

A guest kill is *not* a process crash: the hypervisor keeps time-slicing
the surviving domains, so the global sample timeline after the kill
diverges from the fault-free twin's (NMI samples come from the shared
CPU counters, and the dead guest's slices are redistributed).  The
isolation guarantees are therefore stated against the right twins:

* **pre-kill prefix** — every sample of *any* domain taken at or before
  the killed domain's last sample cycle is identical to the fault-free
  twin's (determinism up to the injected death);
* **salvage isolation** — resolving the whole fleet stream through the
  salvaged chain (killed domain quarantined, degraded mode) attributes
  every surviving domain's samples bit-for-bit identically to resolving
  that domain's own sub-session through a clean strict chain: the dead
  guest's quarantine never leaks into a sibling's resolution;
* **no invented attributions** — the killed domain's really-resolved
  multiset is contained in its fault-free twin's;
* **exact partition** — fleet counters partition across domains: the
  dispatch stage's hits equal the sum of inner-chain totals, per-domain
  totals match the per-domain sample files, and degraded losses are
  charged to the killed domain only.
"""

from collections import Counter

import pytest

from repro.faults import (
    ALL_GUEST_FAULT_POINT_NAMES,
    FaultPlan,
    arm,
)
from repro.metrics.fleet import per_domain_stats
from repro.pipeline import DirectorySource, xen_chain
from repro.pipeline.stages import UNRESOLVED_JIT
from repro.statcheck.analyzer import lint_session
from repro.statcheck.findings import Severity
from repro.viprof.codemap import CodeMapError
from repro.workloads.fleet import fleet_workloads
from repro.xen.fleet import FleetSession, run_fleet

_FLEET_N = 5
_PERIOD = 20_000
_BASE_TIME = 0.12
_SELECTORS = ("first", "mid", "last")


def _run(session_dir) -> FleetSession:
    return run_fleet(
        fleet_workloads(_FLEET_N, base_time_s=_BASE_TIME),
        period=_PERIOD,
        session_dir=session_dir,
    )


def _key(ps, rs) -> tuple:
    raw = rs.raw
    return (
        raw.pc, raw.cycle, raw.task_id, raw.kernel_mode, raw.epoch,
        rs.image, rs.symbol, rs.offset,
    )


def _fleet_multisets(
    fs: FleetSession,
    quarantined=None,
    strict: bool = True,
    real_only: bool = False,
):
    """Per-domain resolution multisets of the whole fleet stream, plus
    the chain that produced them (for its counters)."""
    chain = fs.result.fleet_chain(quarantined, strict=strict)
    out = {did: Counter() for did in fs.domain_ids}
    for ps in fs.source():
        rs = chain.resolve(ps)
        if real_only and rs.symbol == UNRESOLVED_JIT:
            continue
        out[ps.domain_id][_key(ps, rs)] += 1
    return out, chain


def _domain_multiset(
    fs: FleetSession,
    domain_id: int,
    quarantined=(),
    strict: bool = True,
) -> Counter:
    """One domain's multiset from its own sub-session through a fresh,
    single-domain chain — the clean twin the fleet path must match."""
    chain = xen_chain(
        fs.result.hypervisor,
        {
            domain_id: fs.result.domain_chain(
                domain_id, quarantined, strict=strict
            )
        },
    )
    out: Counter = Counter()
    for ps in DirectorySource(fs.domain_dir(domain_id) / "samples"):
        out[_key(ps, chain.resolve(ps))] += 1
    return out


def _restrict(multiset: Counter, max_cycle: int) -> Counter:
    """The sub-multiset of samples taken at or before ``max_cycle``
    (key index 1 is the sample cycle)."""
    return Counter({k: n for k, n in multiset.items() if k[1] <= max_cycle})


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The fault-free fleet twin and its per-domain multisets."""
    fs = _run(tmp_path_factory.mktemp("fleet-baseline"))
    multisets, _chain = _fleet_multisets(fs)
    return {"fs": fs, "multisets": multisets}


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """Observe-mode twin: how often each fault point is reached, and the
    run that reached them."""
    with arm() as injector:
        fs = _run(tmp_path_factory.mktemp("fleet-observe"))
    return dict(injector.hits), fs


@pytest.fixture(scope="module")
def hit_counts(observed):
    return observed[0]


def test_every_guest_fault_point_is_reached(hit_counts):
    # A guest point nobody fires would silently shrink the matrix.
    assert set(ALL_GUEST_FAULT_POINT_NAMES) <= set(hit_counts)
    for name in ALL_GUEST_FAULT_POINT_NAMES:
        assert hit_counts[name] >= len(_SELECTORS)


def test_fault_points_fire_where_they_fired(observed):
    """The matrix's kill positions come from these counts: a change that
    moves a firing (say, ``GUEST_KILL`` once per quiet run instead of
    once per chunk) shifts every position without failing a matrix
    case, so the counts are pinned."""
    hits, fs = observed
    assert hits == {
        "guest.kill": 1_307,
        "guest.map-tear": 141,
        "agent.map-emit": 22,
        "codemap.write": 22,
        "writer.spill": 11,
    }
    assert len(fs.result.buffer) == 131
    assert fs.result.wall_cycles == 2_488_964


def test_fleet_counters_partition_exactly(baseline):
    """Fault-free sanity: the per-domain sample files partition the root
    stream, and the chain's counters partition across domains."""
    fs = baseline["fs"]
    per_file = {
        did: sum(
            1 for _ in DirectorySource(fs.domain_dir(did) / "samples")
        )
        for did in fs.domain_ids
    }
    assert per_file == dict(fs.result.buffer.per_domain)
    assert sum(per_file.values()) == len(fs.result.buffer)

    _multisets, chain = _fleet_multisets(fs)
    stats = chain.stats_dict()
    by_stage = {e["stage"]: e for e in stats["stages"]}
    inner = per_domain_stats(stats)
    assert set(inner) == set(fs.domain_ids)
    assert stats["total_samples"] == len(fs.result.buffer)
    assert (
        by_stage["hypervisor"]["hits"] + by_stage["domain-dispatch"]["hits"]
        == stats["total_samples"]
    )
    assert (
        sum(s["total_samples"] for s in inner.values())
        == by_stage["domain-dispatch"]["hits"]
    )
    xen = fs.result.hypervisor
    for did in fs.domain_ids:
        dispatched = sum(
            1
            for s in fs.result.buffer.samples
            if s.domain_id == did and not xen.is_xen_address(s.raw.pc)
        )
        assert inner[did]["total_samples"] == dispatched


@pytest.mark.parametrize("selector", _SELECTORS)
@pytest.mark.parametrize("point", ALL_GUEST_FAULT_POINT_NAMES)
def test_guest_kill_isolation(point, selector, baseline, hit_counts, tmp_path):
    total = hit_counts[point]
    hit = {"first": 1, "mid": (total + 1) // 2, "last": total}[selector]

    with arm(FaultPlan(point, hit=hit, seed=5)) as injector:
        fs = _run(tmp_path / "fleet")
    assert injector.fired is not None
    assert injector.fired.point == point and injector.fired.hit == hit

    # Exactly one guest dies; the engine finishes the siblings.
    assert len(fs.killed_domains) == 1
    killed = fs.killed_domains[0]
    survivors = [d for d in fs.domain_ids if d != killed]
    try:
        fs.result.domain_chain(killed)
        torn = False
    except CodeMapError:
        torn = True

    # Salvage the dead guest's own sub-session only.
    manifest = fs.salvage_domain(killed)
    quarantined = tuple(manifest.quarantined_epochs)
    if torn:
        # A torn map must have been quarantined, not silently parsed.
        assert manifest.damaged and quarantined

    salvaged, chain = _fleet_multisets(
        fs, quarantined={killed: quarantined}, strict=False
    )

    # --- salvage isolation: siblings resolve bit-for-bit as if the dead
    # guest never existed --------------------------------------------
    for did in survivors:
        clean = _domain_multiset(fs, did)
        assert salvaged[did] == clean, (
            f"{point}@{hit}: salvaging dom{killed} perturbed dom{did}"
        )

    # --- pre-kill prefix: identical to the fault-free twin up to the
    # killed domain's last sample -------------------------------------
    kill_cycle = max(
        (
            s.raw.cycle
            for s in fs.result.buffer.samples
            if s.domain_id == killed
        ),
        default=0,
    )
    for did in survivors:
        assert _restrict(salvaged[did], kill_cycle) == _restrict(
            baseline["multisets"][did], kill_cycle
        ), f"{point}@{hit}: dom{did} diverged before the kill"

    # --- the killed domain never gains an attribution its fault-free
    # twin did not produce --------------------------------------------
    recovered, _ = _fleet_multisets(
        fs, quarantined={killed: quarantined}, strict=False, real_only=True
    )
    assert not recovered[killed] - baseline["multisets"][killed], (
        f"{point}@{hit}: recovered dom{killed} invented attributions"
    )

    # --- counters partition exactly, losses charged to the dead guest
    stats = chain.stats_dict()
    by_stage = {e["stage"]: e for e in stats["stages"]}
    inner = per_domain_stats(stats)
    assert stats["total_samples"] == len(fs.result.buffer)
    assert (
        sum(s["total_samples"] for s in inner.values())
        == by_stage["domain-dispatch"]["hits"]
    )
    xen = fs.result.hypervisor
    for did in fs.domain_ids:
        assert sum(salvaged[did].values()) == fs.result.buffer.per_domain.get(
            did, 0
        )
        dispatched = sum(
            1
            for s in fs.result.buffer.samples
            if s.domain_id == did and not xen.is_xen_address(s.raw.pc)
        )
        assert inner[did]["total_samples"] == dispatched
    blocked_total = 0
    for did, sub in inner.items():
        jit = next(
            e for e in sub["stages"] if e["stage"] == "jit-epoch"
        )
        detail = jit["detail"]
        assert detail["jit_samples"] == (
            detail["resolved_in_own_epoch"]
            + detail["resolved_in_earlier_epoch"]
            + detail["unresolved"]
            + detail["blocked_at_quarantine"]
        )
        blocked = detail["blocked_at_quarantine"]
        blocked_total += blocked
        if did != killed:
            assert blocked == 0, (
                f"{point}@{hit}: degraded losses charged to healthy "
                f"dom{did}"
            )
    degraded = by_stage["domain-dispatch"].get("degraded")
    assert degraded is not None
    assert degraded["blocked_at_quarantine"] == blocked_total

    # --- and the static analyzer agrees the dead guest's sub-session
    # is accounted for ------------------------------------------------
    report = lint_session(fs.domain_dir(killed))
    assert report.exit_code(fail_on=Severity.WARNING) == 0, (
        report.format_text()
    )

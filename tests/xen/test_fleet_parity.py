"""Golden parity for multi-domain ``XPRS`` sessions: the per-sample
oracle (``tests/pipeline/oracle.py``) is the reference, and sharded
resolution over 1, 2 and 4 workers must reproduce its report bytes
*and* its statistics exactly.  Shards that start inside a root file are checked on a
replicated session, and the per-domain sub-sessions must partition the
root stream.

Fleet resolution takes the one production path: each bucket goes from
the outer chain's dispatch stage to its domain chain whole, and no
sample is ever resolved on its own (``ResolverChain.resolve``).
"""

import json
from collections import Counter

import pytest

from repro.pipeline import ResolverChain
from repro.workloads.fleet import FLEET_PROFILES, fleet_workloads
from repro.xen.fleet import run_fleet
from tests.pipeline.oracle import oracle_report
from tests.pipeline.test_parallel import (
    MULTI_SHARD_RECORDS,
    assert_plans_split_files,
    replicate_sample_files,
)

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


def _stats(chain):
    return json.dumps(chain.stats_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def reference(session):
    """The oracle over the root stream: report bytes + stats."""
    report, stats = oracle_report(
        session.result.fleet_chain(), session.source(),
        events=session.events(),
    )
    return {
        "table": report.format_table(limit=10_000),
        "stats": json.dumps(stats, sort_keys=True),
    }


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


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fleet_parity_root_stream(session, reference, workers):
    report, chain = session.resolve(workers=workers)
    assert report.format_table(limit=10_000) == reference["table"]
    assert _stats(chain) == reference["stats"]


def _row_counts(report):
    """``{(image, symbol): Counter(event -> count)}``, zero counts
    dropped."""
    return {
        (row.image, row.symbol): +Counter(
            {ev: row.count(ev) for ev in report.events}
        )
        for row in report.sorted_rows()
    }


def test_fleet_layouts_agree(session):
    """The per-domain sub-sessions partition the root stream: each
    domain's rows and totals, summed over the fleet, equal the root
    stream's."""
    root, _ = session.resolve()
    rows: dict[tuple[str, str], Counter] = {}
    totals: Counter = Counter()
    for did in session.domain_ids:
        report, _ = session.domain_resolve(did)
        for key, counts in _row_counts(report).items():
            rows[key] = rows.get(key, Counter()) + counts
        totals.update(report.totals)
    assert rows == _row_counts(root)
    assert totals == Counter(root.totals)
    assert sum(totals.values()) > 0


@pytest.fixture(scope="module")
def replicated_session(tmp_path_factory):
    """A second 4-guest session whose root sample files are each
    replicated in place past ``MULTI_SHARD_RECORDS``, so a sharded root
    ``resolve()`` splits files."""
    fleet = run_fleet(
        fleet_workloads(_FLEET_N, base_time_s=_BASE_TIME),
        period=_PERIOD,
        session_dir=tmp_path_factory.mktemp("fleet-multi-shard"),
    )
    root = fleet.session_dir / "samples"
    replicate_sample_files(root, root, MULTI_SHARD_RECORDS)
    return fleet


@pytest.mark.parametrize("workers", [2, 4])
def test_fleet_parity_multi_shard(replicated_session, workers):
    """Shards that start inside a root file still run the whole Xen
    chain in each worker and reproduce the sequential bytes and
    statistics."""
    assert_plans_split_files(replicated_session.source(), workers)
    seq, seq_chain = replicated_session.resolve(workers=1)
    par, par_chain = replicated_session.resolve(workers=workers)
    assert par.format_table(limit=10_000) == seq.format_table(limit=10_000)
    assert _stats(par_chain) == _stats(seq_chain)


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

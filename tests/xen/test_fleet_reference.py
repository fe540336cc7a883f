"""Differential property: Xen guests on the VM executor against the
per-chunk reference executor (``tests/system/reference_engine.py``),
over whole small fleets.

Each guest runs through its own :class:`~repro.system.engine.VmExecutor`,
one chunk per request: a chunk that overflows no counter is settled
without :meth:`CPU.execute`, and an activity's ITLB misses are drawn at
once; the reference executes every chunk and draws each chunk's ITLB
misses alone.  Fed the same fleet, the two must end in the same run:
the bytes of every ``save_fleet_session`` file, the XenoProf buffer, the
wall clock and ``CpuStats``, and each guest's ``VmRunStats``, GC
statistics, workload cycles, ledger (by symbol in insertion order, and
by layer) and ITLB stream.

Runs with a guest fault point armed must kill the same domain with the
same fault.  The killed guest's ITLB stream is the one thing left out
there: the executor draws an activity's misses when the activity
starts, so a guest killed inside an activity has drawn misses for
chunks it never ran.

Both executors share the engine's loop, and with it the guest fault
points, so each run also checks where ``GUEST_KILL`` fires: before the
next activity is drawn.  Every activity a guest draws runs a chunk,
unless a ``GUEST_MAP_TEAR`` kill cuts it before its first.
"""

import contextlib
import dataclasses
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.faults import GUEST_KILL, GUEST_MAP_TEAR, FaultPlan, arm
from repro.workloads.fleet import fleet_workloads
from repro.xen import GuestSpec, MultiStackEngine
from tests.system.reference_engine import per_chunk_executor
from tests.system.test_engine_reference import hash_tree, hot_code_bytes

#: A hot-code footprint far beyond the ITLB's reach, so every VM chunk
#: draws ITLB misses.
_BIG_HOT_CODE = 4 << 20


@st.composite
def fleets(draw):
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 30))
    workloads = fleet_workloads(
        n,
        base_time_s=draw(st.sampled_from([0.02, 0.03, 0.05])),
        seed=draw(st.integers(0, 30)),
    )
    weights = draw(
        st.lists(st.sampled_from([128, 256, 512]), min_size=n, max_size=n)
    )
    return dict(
        specs=[
            GuestSpec(w, weight=weight, seed=seed)
            for w, weight in zip(workloads, weights)
        ],
        period=draw(st.sampled_from([4_000, 9_000, 20_000])),
    )


def _drawn_at(vm, marks: list) -> None:
    """Record the guest's chunk count each time it draws an activity."""
    stats = vm.machine.stats

    def marked(runs):
        for run in runs:
            marks.append(stats.steps)
            yield run

    vm.runs = marked(vm.runs)


def outcome(reference: bool, fleet: dict, session: Path, plan=None) -> dict:
    with per_chunk_executor() if reference else contextlib.nullcontext():
        engine = MultiStackEngine(
            fleet["specs"], period=fleet["period"], session_dir=session
        )
    marks = {did: [] for did in engine.guests}
    for did, g in engine.guests.items():
        _drawn_at(g.vm, marks[did])
    with arm(plan) if plan is not None else contextlib.nullcontext() as inj:
        result = engine.run()
    result.save_fleet_session()
    killed = result.killed_domains
    record = {
        "files": hash_tree(session),
        "buffer": [
            (s.domain_id, dataclasses.astuple(s.raw))
            for s in result.buffer.samples
        ],
        "buffer_counts": (
            result.buffer.lost, result.buffer.xen_samples,
            dict(result.buffer.per_domain),
        ),
        "wall_cycles": result.wall_cycles,
        "cpu_stats": dataclasses.asdict(engine.cpu.stats),
        "killed": killed,
        "fired": (
            None if inj is None or inj.fired is None
            else (inj.fired.point, inj.fired.hit, dict(inj.hits))
        ),
        "guests": {},
    }
    for did, g in sorted(result.guests.items()):
        vm = g.vm
        machine = vm.machine
        ledger = vm.ledger
        record["guests"][did] = {
            "vm_stats": dataclasses.asdict(machine.stats),
            "gc_stats": dataclasses.asdict(machine.collector.stats),
            "workload_cycles": vm.workload_cycles,
            "by_symbol": [
                (key, e.cycles, e.l2_misses)
                for key, e in ledger.by_symbol.items()
            ],
            "by_layer": [
                (layer, e.cycles, e.l2_misses)
                for layer, e in ledger.by_layer.items()
            ],
            "itlb": (
                None if did in killed
                else (vm.tlb.misses, vm.tlb._rng.bit_generator.state)
            ),
        }
        # GUEST_KILL fires before the next activity is drawn: every drawn
        # activity has run a chunk by the next draw and by the end, but
        # for one a GUEST_MAP_TEAR kill cut before its first chunk.
        steps = [*marks[did], machine.stats.steps]
        if g.killed is not None and g.killed.point == GUEST_MAP_TEAR:
            steps[-1] += 1
        assert all(a < b for a, b in zip(steps, steps[1:])), (
            f"dom{did} drew an activity it did not start"
        )
    return record


@given(
    fleet=fleets(),
    fault=st.sampled_from([None, GUEST_KILL, GUEST_MAP_TEAR]),
    at=st.floats(0.0, 1.0),
    hot_code=st.sampled_from([None, _BIG_HOT_CODE]),
)
@settings(max_examples=24, deadline=None)
def test_fleet_matches_per_chunk_reference(
    tmp_path_factory, fleet, fault, at, hot_code
):
    tmp = tmp_path_factory.mktemp("fleet-ref")
    plan = None
    with hot_code_bytes(hot_code):
        if fault is not None:
            # The fault lands on a drawn hit of the point, counted in a
            # fault-free run in observe mode.
            with arm() as observed:
                MultiStackEngine(
                    fleet["specs"], period=fleet["period"],
                    session_dir=tmp / "observe",
                ).run()
            hits = observed.hits[fault]
            plan = FaultPlan(fault, hit=1 + int(at * (hits - 1)), seed=3)
        want = outcome(True, fleet, tmp / "reference", plan)
        got = outcome(False, fleet, tmp / "executor", plan)
    assert got == want
    if plan is not None:
        assert got["fired"] is not None and len(got["killed"]) == 1
    else:
        assert got["killed"] == ()

"""Differential property: the engine's VM executor against the
per-chunk reference executor (``reference_engine.py``).

The executor settles each quiet run of VM chunks, and draws each
activity's ITLB misses, in one step; the reference takes every chunk on
its own.  Fed the same workload and configuration, the two engines must
end in the same run: every cycle, the ledger by symbol (in insertion
order) and by layer, ``CpuStats``, ``VmRunStats``, the GC statistics,
``buffer_lost``, the call graph, the ITLB model's misses and stream, and
the bytes of every session file.
"""

import contextlib
import dataclasses
import hashlib
import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, HardwareError
from repro.hardware.counters import CounterConfig
from repro.hardware.events import (
    BSQ_CACHE_REFERENCE,
    GLOBAL_POWER_EVENTS,
    INSTR_RETIRED,
)
from repro.jvm.machine import MAX_STEP_CYCLES, StepKind, VmRun, VmRunStats
from repro.oprofile.opcontrol import EventSpec, OprofileConfig
from repro.profiling.model import Layer, TruthLabel
from repro.system import engine as engine_module
from repro.system.engine import EngineConfig, ProfilerMode, SystemEngine
from repro.workloads.base import Workload
from tests.conftest import make_tiny_methods
from tests.system.reference_engine import PerChunkEngine

_PERIODS = {
    "GLOBAL_POWER_EVENTS": st.integers(3_000, 60_000),
    "BSQ_CACHE_REFERENCE": st.integers(500, 5_000),
    "INSTR_RETIRED": st.integers(3_000, 40_000),
    "ITLB_REFERENCE": st.integers(500, 1_500),
    "BRANCH_RETIRED": st.integers(3_000, 10_000),
    "MISPRED_BRANCH_RETIRED": st.integers(500, 1_000),
}

#: A hot-code footprint far beyond the ITLB's reach, so every VM chunk
#: draws ITLB misses.
_BIG_HOT_CODE = 4 << 20


@st.composite
def workloads(draw):
    n = draw(st.integers(2, 7))
    methods = make_tiny_methods(n, seed=draw(st.integers(0, 50)))
    big_code = draw(st.booleans())
    for i, m in enumerate(methods):
        m.cycles_per_invocation = draw(st.integers(300, 9_000))
        m.accesses_per_invocation = draw(st.integers(0, 600))
        if big_code:
            m.bytecode_size = 2_000 + 700 * i
    return Workload(
        name="ref",
        base_time_s=draw(st.floats(0.01, 0.1)),
        methods=methods,
        nursery_bytes=draw(
            st.sampled_from([48 * 1024, 64 * 1024, 256 * 1024])
        ),
        mature_bytes=4 * 1024 * 1024,
        phases=2,
        burst=(2, draw(st.integers(3, 14))),
        seed=draw(st.integers(0, 99)),
        survival_rate=0.1,
    )


@st.composite
def configs(draw):
    mode = draw(st.sampled_from(list(ProfilerMode)))
    kw = dict(
        mode=mode,
        seed=draw(st.integers(0, 1_000)),
        noise=draw(st.booleans()),
        time_scale=draw(st.sampled_from([0.5, 1.0, 1.7])),
    )
    if mode is not ProfilerMode.NONE:
        names = draw(
            st.lists(st.sampled_from(sorted(_PERIODS)), min_size=1,
                     max_size=2, unique=True)
        )
        kw["profile_config"] = OprofileConfig(
            events=tuple(EventSpec(name, draw(_PERIODS[name])) for name in names),
            buffer_capacity=draw(st.sampled_from([64, 8192])),
            daemon_period=draw(st.sampled_from([40_000, 250_000])),
        )
        kw["profile_window"] = draw(
            st.sampled_from([(0.0, 1.0), (0.3, 0.6), (0.0, 0.05), (0.9, 1.0)])
        )
        kw["record_callgraph"] = draw(st.booleans())
    return kw


def hash_tree(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def outcome(engine_cls, workload, kw, session: Path) -> dict:
    profiled = kw["mode"] is not ProfilerMode.NONE
    cfg = EngineConfig(**kw, session_dir=session if profiled else None)
    engine = engine_cls(workload, cfg)
    run = engine.run()
    ledger = run.ledger
    record = {
        "wall_cycles": run.wall_cycles,
        "workload_cycles": run.workload_cycles,
        "budget": run.budget_cycles,
        "by_symbol": [
            (key, e.cycles, e.l2_misses) for key, e in ledger.by_symbol.items()
        ],
        "by_layer": [
            (layer, e.cycles, e.l2_misses) for layer, e in ledger.by_layer.items()
        ],
        "ledger_totals": (
            ledger.total_cycles, ledger.total_misses, ledger.idle_cycles
        ),
        "cpu_stats": dataclasses.asdict(run.cpu_stats),
        "cpu_cycle": engine.cpu.cycle,
        "counters": [
            (c.event.name, c.remaining, c.overflows)
            for c in engine.cpu.counters.counters
        ],
        "vm_stats": dataclasses.asdict(run.vm_stats),
        "gc_stats": dataclasses.asdict(run.gc_stats),
        "buffer_lost": run.buffer_lost,
        "itlb_misses": engine.vm.tlb.misses,
        "itlb_stream": engine.vm.tlb._rng.bit_generator.state,
        "callgraph": (
            (
                list(run.callgraph.recorder.arcs.items()),
                list(run.callgraph.recorder.self_samples.items()),
                list(run.callgraph._layers.items()),
            )
            if run.callgraph is not None
            else None
        ),
        "files": hash_tree(session) if session.exists() else {},
    }
    if run.daemon_stats is not None:
        record["daemon_stats"] = dataclasses.asdict(run.daemon_stats)
    return record


def hot_code_bytes(size: int | None):
    """Patch the engine's hot boot-code footprint (None: leave it)."""
    if size is None:
        return contextlib.nullcontext()
    return mock.patch.object(engine_module, "_BOOT_HOT_CODE_BYTES", size)


def assert_same_run(workload, kw, tmp: Path, hot_code: int | None = None):
    with hot_code_bytes(hot_code):
        want = outcome(PerChunkEngine, workload, kw, tmp / "reference")
        got = outcome(SystemEngine, workload, kw, tmp / "engine")
    assert got == want
    return got


@given(
    workload=workloads(),
    kw=configs(),
    hot_code=st.sampled_from([None, _BIG_HOT_CODE]),
)
@settings(max_examples=40, deadline=None)
def test_engine_matches_per_chunk_reference(
    tmp_path_factory, workload, kw, hot_code
):
    assert_same_run(workload, kw, tmp_path_factory.mktemp("ref"), hot_code)


def tiny(base_time_s=0.03, **kw):
    methods = make_tiny_methods(4)
    for m in methods:
        m.cycles_per_invocation = 7_000
        m.bytecode_size = 3_000
    return Workload(
        name="tiny-ref", base_time_s=base_time_s, methods=methods,
        nursery_bytes=64 * 1024, mature_bytes=4 * 1024 * 1024, phases=2,
        burst=(6, 12), seed=13, survival_rate=0.1, **kw,
    )


@pytest.mark.parametrize("mode", [ProfilerMode.OPROFILE, ProfilerMode.VIPROF])
@pytest.mark.parametrize(
    "events",
    [
        (("GLOBAL_POWER_EVENTS", 3_000),),
        (("INSTR_RETIRED", 3_000), ("BSQ_CACHE_REFERENCE", 500)),
        (("ITLB_REFERENCE", 500), ("GLOBAL_POWER_EVENTS", 7_000)),
    ],
)
def test_dense_sampling_matches_reference(tmp_path, mode, events):
    """Many overflowing chunks, on every event kind the quiet check
    tracks, with the ITLB drawn for every chunk."""
    kw = dict(
        mode=mode, seed=3, noise=True, time_scale=1.0,
        profile_config=OprofileConfig(
            events=tuple(EventSpec(name, period) for name, period in events)
        ),
    )
    got = assert_same_run(tiny(), kw, tmp_path, hot_code=_BIG_HOT_CODE)
    assert got["cpu_stats"]["nmi_count"] >= 10
    assert got["itlb_misses"] > 0


def test_budget_ending_mid_activity_matches_reference(tmp_path):
    """Runs whose budget ends inside a multi-chunk activity: the engine
    takes, and draws ITLB misses for, only the chunks that execute."""
    mid_activity = 0
    for scale in (0.3, 0.37, 0.41, 0.5, 0.63, 0.77):
        kw = dict(
            mode=ProfilerMode.VIPROF, seed=5, noise=False, time_scale=scale,
            profile_config=OprofileConfig.paper_config(45_000),
        )
        wl = tiny(base_time_s=0.05)
        assert_same_run(wl, kw, tmp_path / str(scale), hot_code=_BIG_HOT_CODE)
        # The same run once more, keeping the runs the VM hands out: the
        # last one has chunks left when the budget ended inside it.
        engine = SystemEngine(
            wl, EngineConfig(**kw, session_dir=tmp_path / f"{scale}-mid")
        )
        runs = []

        def kept(vm_runs):
            for run in vm_runs:
                runs.append(run)
                yield run

        engine.vm.runs = kept(engine.vm.runs)
        with hot_code_bytes(_BIG_HOT_CODE):
            engine.run()
        if runs[-1].kind is not StepKind.AGENT and list(runs[-1]):
            mid_activity += 1
    assert mid_activity >= 2


class _QuarterMisses:
    """A cache model whose every access stream misses exactly a quarter
    of the time, so miss totals land on counter limits exactly."""

    def misses_for(self, ws, n_accesses):
        return n_accesses // 4


def _aligned_runs(stats):
    """VM activities of whole 2,000-cycle chunks, 400 accesses each, and
    one 1,000-cycle activity now and then to shift the alignment."""
    ws = make_tiny_methods(1)[0].working_set
    truth = TruthLabel(Layer.APP_JIT, "JIT.App", "m")
    for i in itertools.count():
        chunks = 1 + i % 7
        yield VmRun(
            StepKind.APP, 0x1000 + 0x40 * (i % 5), 0x400,
            chunks * MAX_STEP_CYCLES, chunks * 400, ws, truth, None, 1.25,
            stats, "app_cycles",
        )
        if i % 11 == 10:
            yield VmRun(
                StepKind.VM, 0x9000, 0x100, MAX_STEP_CYCLES // 2, 200, ws,
                TruthLabel(Layer.VM, "RVM.map", "v"), None, 1.6, stats,
                "vm_cycles",
            )


def aligned_outcome(engine_cls, counters):
    """A run whose cycle, miss and instruction totals meet counter limits
    exactly: user-mode counters (kernel quanta leave them alone) over
    whole chunks, and a handler that charges cycles."""
    engine = engine_cls(
        tiny(base_time_s=0.2),
        EngineConfig(seed=4, noise=False, background=False),
    )
    engine.vm.runs = _aligned_runs(engine.machine.stats)
    engine.vm.cache = _QuarterMisses()
    for event, period in counters:
        engine.cpu.counters.program(
            CounterConfig(event=event, period=period, count_kernel=False)
        )
    frames = []

    def handler(frame):
        frames.append(frame)
        return 700

    engine.cpu.nmi.register(handler)
    run = engine.run()
    return (
        frames,
        run.wall_cycles,
        run.workload_cycles,
        list(run.ledger.by_symbol.items()),
        dataclasses.asdict(run.cpu_stats),
        dataclasses.asdict(run.vm_stats),
        [(c.remaining, c.overflows) for c in engine.cpu.counters.counters],
    )


@pytest.mark.parametrize(
    "counters",
    [
        ((GLOBAL_POWER_EVENTS, 6_000),),
        ((BSQ_CACHE_REFERENCE, 500), (GLOBAL_POWER_EVENTS, 30_000)),
        ((INSTR_RETIRED, 3_200),),
        (),
    ],
    ids=["cycles", "misses", "instructions", "none"],
)
def test_totals_meeting_limits_exactly_match_reference(counters):
    """Quiet totals that reach a counter's remaining count exactly
    overflow it, as chunk-by-chunk execution does."""
    got = aligned_outcome(SystemEngine, counters)
    assert got == aligned_outcome(PerChunkEngine, counters)
    assert len(got[0]) >= (20 if counters else 0)


def test_quiet_run_stops_where_the_next_chunk_would_start_late():
    """The executor takes no chunk that would start at or after the
    limit (the next tick or the slice end), as the per-chunk loop checks
    the clock before each chunk, and comes back for the rest."""
    engine = SystemEngine(tiny(), EngineConfig(seed=1, noise=False))
    vm = engine.vm
    stats = engine.machine.stats
    vm.start_run(VmRun(
        StepKind.APP, 0x1000, 0x400, 5 * MAX_STEP_CYCLES, 0, None,
        TruthLabel(Layer.APP_JIT, "JIT.App", "m"), None, 1.5, stats,
        "app_cycles",
    ))
    start = engine.cpu.cycle
    assert not vm.take_chunks(start + 2 * MAX_STEP_CYCLES)
    assert engine.cpu.cycle == start + 2 * MAX_STEP_CYCLES
    assert stats.steps == 2 and vm.current is not None
    # A limit one cycle ahead takes one chunk.
    assert not vm.take_chunks(engine.cpu.cycle + 1)
    assert engine.cpu.cycle == start + 3 * MAX_STEP_CYCLES
    assert stats.steps == 3 and vm.current is not None
    assert vm.take_chunks(start + 10 * MAX_STEP_CYCLES)
    assert engine.cpu.cycle == start + 5 * MAX_STEP_CYCLES
    assert stats.steps == 5 and vm.current is None
    assert engine.cpu.stats.quanta == 5


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("pc", -4, HardwareError),
        ("code_len", -1, ConfigError),
        ("accesses", -10, ConfigError),
    ],
)
@pytest.mark.parametrize("engine_cls", [SystemEngine, PerChunkEngine])
def test_bad_run_raises_like_per_chunk_path(field, value, error, engine_cls):
    """Each check the per-chunk path made raises, with the same error
    type, on the first chunk of a bad activity."""
    engine = engine_cls(tiny(), EngineConfig(seed=1, noise=False))
    args = dict(
        kind=StepKind.APP, pc=0x1000, code_len=0x200,
        cycles=3 * MAX_STEP_CYCLES, accesses=30, working_set=None,
        truth=TruthLabel(Layer.APP_JIT, "JIT.App", "m"), caller=None,
        cpi=1.5, stats=VmRunStats(), stat="app_cycles",
    )
    args[field] = value

    def one_bad_run():
        yield VmRun(**args)
        raise AssertionError("the bad run must stop the engine")

    engine.vm.runs = one_bad_run()
    with pytest.raises(error):
        engine.run()

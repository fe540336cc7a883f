"""Differential property: :meth:`CPU.execute` against the reference loop.

The production CPU settles a quantum that overflows no counter in one
pass over a cached list of the counters armed in its mode; the reference
(``reference_cpu.py``) splits every quantum the long way.  Fed the same
quanta, counter programming and NMI handler, the two must raise the same
interrupts and end in the same counter and CPU state.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.errors import CounterError
from repro.hardware.counters import CounterConfig
from repro.hardware.cpu import CPU
from repro.hardware.events import (
    BSQ_CACHE_REFERENCE,
    GLOBAL_POWER_EVENTS,
    INSTR_RETIRED,
    EventCounts,
)
from repro.hardware.interrupts import CpuMode
from tests.hardware.reference_cpu import ReferenceCPU

_PERIODS = {
    GLOBAL_POWER_EVENTS: st.integers(3_000, 60_000),
    BSQ_CACHE_REFERENCE: st.integers(500, 4_000),
    INSTR_RETIRED: st.integers(3_000, 20_000),
}


@st.composite
def counter_configs(draw):
    event = draw(st.sampled_from(sorted(_PERIODS, key=lambda e: e.name)))
    mask = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    return CounterConfig(
        event=event, period=draw(_PERIODS[event]),
        count_user=mask[0], count_kernel=mask[1],
    )


@st.composite
def quanta(draw):
    cycles = draw(
        st.one_of(
            st.just(0),
            st.integers(1, 3_000),
            st.integers(3_000, 200_000),  # spans several small periods
        )
    )
    return (
        "quantum",
        draw(st.integers(0, 1 << 32)),
        draw(st.sampled_from([0, 4, 0x100, 0x802])),
        EventCounts(
            cycles=cycles,
            instructions=cycles * draw(st.integers(0, 4)) // 3,
            l2_misses=draw(st.integers(0, max(0, cycles // 20))),
        ),
        draw(st.sampled_from([CpuMode.USER, CpuMode.KERNEL])),
        draw(st.integers(0, 3)),
    )


operations = st.one_of(
    quanta(),
    quanta(),
    quanta(),
    counter_configs().map(lambda c: ("program", c)),
    st.just(("clear",)),
)


def drive(cpu, bank, ops, handler_cost):
    frames = []

    def handler(frame):
        frames.append(frame)
        return handler_cost

    cpu.nmi.register(handler)
    for cfg in bank:
        cpu.counters.program(cfg)
    for op in ops:
        if op[0] == "quantum":
            _, pc, code_len, counts, mode, task = op
            cpu.current_task_id = task
            cpu.execute(pc, code_len, dataclasses.replace(counts), mode)
        elif op[0] == "program":
            try:
                cpu.counters.program(op[1])
            except CounterError:
                pass  # the event already has a counter
        else:
            cpu.counters.clear()
    counters = [
        (c.event.name, c.remaining, c.overflows) for c in cpu.counters.counters
    ]
    return frames, counters, dataclasses.asdict(cpu.stats), cpu.cycle


@given(
    bank=st.lists(counter_configs(), min_size=1, max_size=3,
                  unique_by=lambda c: c.event.name),
    ops=st.lists(operations, min_size=1, max_size=40),
    handler_cost=st.sampled_from([0, 1_100, 7_000]),
)
@settings(max_examples=150, deadline=None)
def test_execute_matches_reference(bank, ops, handler_cost):
    assert drive(CPU(), bank, ops, handler_cost) == drive(
        ReferenceCPU(), bank, ops, handler_cost
    )


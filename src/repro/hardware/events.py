"""Hardware performance event definitions.

The paper profiles two Pentium 4 events: ``GLOBAL_POWER_EVENTS`` (a proxy for
elapsed time — the clock ticks while the processor is active) and
``BSQ_CACHE_REFERENCE`` with a unit mask selecting L2 data-cache read misses.
We model those plus the handful of other events OProfile commonly supports on
that microarchitecture, so counter programming and validation code paths are
exercised with a realistic event table.

Each event is tied to one field of :class:`EventCounts`, the per-quantum
delta record produced by the execution engine and consumed by the counter
bank.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = [
    "HardwareEvent",
    "EventCounts",
    "EVENTS",
    "event_by_name",
    "GLOBAL_POWER_EVENTS",
    "BSQ_CACHE_REFERENCE",
    "INSTR_RETIRED",
    "BRANCH_RETIRED",
    "MISPRED_BRANCH_RETIRED",
    "ITLB_REFERENCE",
]


@dataclass(frozen=True, slots=True)
class HardwareEvent:
    """A programmable hardware performance event.

    Attributes:
        name: OProfile-style event mnemonic.
        code: event-select code written to the (simulated) ESCR/CCCR pair.
        counts_field: name of the :class:`EventCounts` field this event
            accumulates.
        min_period: smallest legal reset value; real kernels refuse
            pathologically small periods because the NMI storm would lock
            the machine up.
        description: human-readable summary for report headers.
    """

    name: str
    code: int
    counts_field: str
    min_period: int
    description: str

    def validate_period(self, period: int) -> None:
        """Raise :class:`ConfigError` unless ``period`` is legal for this event."""
        if period < self.min_period:
            raise ConfigError(
                f"period {period} below minimum {self.min_period} for event "
                f"{self.name}"
            )


@dataclass(slots=True)
class EventCounts:
    """Event deltas accumulated over one execution quantum.

    The engine fills one of these per quantum; the counter bank drains it.
    ``cycles`` is always positive for a non-empty quantum; the other fields
    may be zero.  Construction rejects a negative field, so the CPU never
    re-checks a quantum's counts.
    """

    cycles: int = 0
    instructions: int = 0
    l2_references: int = 0
    l2_misses: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    itlb_misses: int = 0

    def __post_init__(self) -> None:
        if (
            self.cycles < 0
            or self.instructions < 0
            or self.l2_references < 0
            or self.l2_misses < 0
            or self.branches < 0
            or self.branch_mispredicts < 0
            or self.itlb_misses < 0
        ):
            for name in self.__slots__:
                v = getattr(self, name)
                if v < 0:
                    raise ConfigError(f"negative event count {name}={v}")

    def scaled(self, numer: int, denom: int) -> "EventCounts":
        """Return counts scaled by ``numer/denom`` (floor), used when a
        quantum is split at a counter-overflow boundary."""
        if denom <= 0:
            raise ConfigError("scale denominator must be positive")

        def s(v: int) -> int:
            return (v * numer) // denom

        return EventCounts(
            cycles=s(self.cycles),
            instructions=s(self.instructions),
            l2_references=s(self.l2_references),
            l2_misses=s(self.l2_misses),
            branches=s(self.branches),
            branch_mispredicts=s(self.branch_mispredicts),
            itlb_misses=s(self.itlb_misses),
        )

    def minus(self, other: "EventCounts") -> "EventCounts":
        """Component-wise difference clamped at zero (split remainder)."""
        return EventCounts(
            cycles=max(0, self.cycles - other.cycles),
            instructions=max(0, self.instructions - other.instructions),
            l2_references=max(0, self.l2_references - other.l2_references),
            l2_misses=max(0, self.l2_misses - other.l2_misses),
            branches=max(0, self.branches - other.branches),
            branch_mispredicts=max(
                0, self.branch_mispredicts - other.branch_mispredicts
            ),
            itlb_misses=max(0, self.itlb_misses - other.itlb_misses),
        )


GLOBAL_POWER_EVENTS = HardwareEvent(
    name="GLOBAL_POWER_EVENTS",
    code=0x13,
    counts_field="cycles",
    min_period=3000,
    description="time during which processor is not stopped",
)

BSQ_CACHE_REFERENCE = HardwareEvent(
    name="BSQ_CACHE_REFERENCE",
    code=0x0C,
    counts_field="l2_misses",
    min_period=500,
    description="L2 cache references / read misses (unit mask 0x100)",
)

INSTR_RETIRED = HardwareEvent(
    name="INSTR_RETIRED",
    code=0x02,
    counts_field="instructions",
    min_period=3000,
    description="retired instructions",
)

BRANCH_RETIRED = HardwareEvent(
    name="BRANCH_RETIRED",
    code=0x06,
    counts_field="branches",
    min_period=3000,
    description="retired branches",
)

MISPRED_BRANCH_RETIRED = HardwareEvent(
    name="MISPRED_BRANCH_RETIRED",
    code=0x03,
    counts_field="branch_mispredicts",
    min_period=500,
    description="retired mispredicted branches",
)

ITLB_REFERENCE = HardwareEvent(
    name="ITLB_REFERENCE",
    code=0x18,
    counts_field="itlb_misses",
    min_period=500,
    description="ITLB misses (unit mask 0x02)",
)

EVENTS: dict[str, HardwareEvent] = {
    e.name: e
    for e in (
        GLOBAL_POWER_EVENTS,
        BSQ_CACHE_REFERENCE,
        INSTR_RETIRED,
        BRANCH_RETIRED,
        MISPRED_BRANCH_RETIRED,
        ITLB_REFERENCE,
    )
}


def event_by_name(name: str) -> HardwareEvent:
    """Look up an event mnemonic, raising :class:`ConfigError` if unknown."""
    try:
        return EVENTS[name]
    except KeyError:
        known = ", ".join(sorted(EVENTS))
        raise ConfigError(f"unknown hardware event {name!r} (known: {known})") from None

"""Hardware performance counter bank.

OProfile programs each counter with a *reset value* equal to the sampling
period: the counter counts up (we model it as counting *down* from the reset
value, which is arithmetically identical) and raises an NMI when it reaches
zero, after which the kernel module reloads the reset value.

The subtle piece the CPU relies on is :meth:`HardwareCounter.events_to_overflow`:
given the event delta of an execution quantum, it reports how many events into
that quantum the *first* overflow lands, so the CPU can split the quantum and
compute a precise program-counter value for the interrupt — exactly the PC the
real NMI handler would read from the exception frame.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.errors import ConfigError, CounterError
from repro.hardware.events import EventCounts, HardwareEvent

__all__ = ["CounterConfig", "HardwareCounter", "CounterBank"]

#: position of each :class:`EventCounts` field in field order
_COUNT_INDEX = {f.name: i for i, f in enumerate(dataclasses.fields(EventCounts))}

#: Number of general counters we expose.  The Pentium 4 has 18; OProfile on
#: that hardware typically programs a handful.  Eight is plenty for every
#: configuration in the paper while still letting tests exercise "bank full".
NUM_COUNTERS = 8


@dataclass(frozen=True, slots=True)
class CounterConfig:
    """User-visible programming of one counter.

    Attributes:
        event: the hardware event to count.
        period: reset value — an NMI fires every ``period`` events.
        count_user: count events while the CPU is in user mode.
        count_kernel: count events while the CPU is in kernel mode.
    """

    event: HardwareEvent
    period: int
    count_user: bool = True
    count_kernel: bool = True

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigError(f"sampling period must be positive, got {self.period}")
        self.event.validate_period(self.period)
        if not (self.count_user or self.count_kernel):
            raise ConfigError("counter must count at least one of user/kernel mode")


@dataclass(slots=True)
class HardwareCounter:
    """One armed counter: configuration plus the live countdown state."""

    config: CounterConfig
    remaining: int = field(default=0)
    overflows: int = field(default=0)

    def __post_init__(self) -> None:
        if self.remaining == 0:
            self.remaining = self.config.period

    @property
    def event(self) -> HardwareEvent:
        return self.config.event

    def counts_in_mode(self, kernel_mode: bool) -> bool:
        """True if this counter is live in the given CPU mode."""
        return self.config.count_kernel if kernel_mode else self.config.count_user

    def events_to_overflow(self, delta: int) -> int | None:
        """Given ``delta`` upcoming events, return how many events in the
        first overflow occurs, or ``None`` if the counter survives the whole
        delta.  Does not mutate state."""
        if delta < 0:
            raise CounterError(f"negative event delta {delta}")
        if delta >= self.remaining:
            return self.remaining
        return None

    def consume(self, delta: int) -> int:
        """Consume ``delta`` events, reloading on each overflow.

        Returns the number of overflows that occurred within the delta.
        Callers that need per-overflow PCs should instead split work with
        :meth:`events_to_overflow`; this bulk form is used for counters other
        than the one that fired, and in tests.
        """
        if delta < 0:
            raise CounterError(f"negative event delta {delta}")
        fired = 0
        period = self.config.period
        if delta >= self.remaining:
            delta -= self.remaining
            fired += 1
            fired += delta // period
            self.remaining = period - (delta % period)
        else:
            self.remaining -= delta
        self.overflows += fired
        return fired

    def reload(self) -> None:
        """Explicitly reload the reset value (kernel does this in the NMI
        handler on real hardware)."""
        self.remaining = self.config.period


class CounterBank:
    """The set of armed counters on one (simulated) CPU.

    The bank enforces the physical constraints the real driver enforces:
    a bounded number of counters and one counter per event (the P4 ESCR
    allocation constraint, simplified).
    """

    def __init__(self, num_counters: int = NUM_COUNTERS) -> None:
        if num_counters <= 0:
            raise ConfigError("counter bank needs at least one counter slot")
        self._slots = num_counters
        self._counters: list[HardwareCounter] = []
        #: ``armed[kernel_mode]``: ``(counter, counts field)`` for every
        #: counter live in that CPU mode, in programming order; rebuilt
        #: whenever the bank is reprogrammed.
        self.armed: tuple[list[tuple[HardwareCounter, str]], ...] = ([], [])
        #: the same counters as ``(counter, position of its counts field
        #: in EventCounts field order)``
        self.armed_at: tuple[list[tuple[HardwareCounter, int]], ...] = ([], [])

    def program(self, config: CounterConfig) -> HardwareCounter:
        """Arm a counter.  Raises :class:`CounterError` when the bank is full
        or the event is already being counted."""
        if len(self._counters) >= self._slots:
            raise CounterError(f"all {self._slots} counters in use")
        if any(c.event.name == config.event.name for c in self._counters):
            raise CounterError(f"event {config.event.name} already has a counter")
        ctr = HardwareCounter(config=config)
        self._counters.append(ctr)
        self._rearm()
        return ctr

    def clear(self) -> None:
        """Disarm every counter (``opcontrol --deinit``)."""
        self._counters.clear()
        self._rearm()

    def _rearm(self) -> None:
        self.armed = tuple(
            [
                (c, c.config.event.counts_field)
                for c in self._counters
                if c.counts_in_mode(kernel_mode)
            ]
            for kernel_mode in (False, True)
        )
        self.armed_at = tuple(
            [(c, _COUNT_INDEX[name]) for c, name in armed]
            for armed in self.armed
        )

    @property
    def counters(self) -> tuple[HardwareCounter, ...]:
        return tuple(self._counters)

    def quiet_limits(self, kernel_mode: bool) -> list[float]:
        """One limit per :class:`EventCounts` field, in field order: the
        smallest remaining count of a counter armed on that field in the
        given mode (``inf`` where none is).  Quanta executed one after
        another overflow no counter exactly when the running total of
        every field stays below that field's limit."""
        limits = [math.inf] * len(_COUNT_INDEX)
        for ctr, i in self.armed_at[kernel_mode]:
            if ctr.remaining < limits[i]:
                limits[i] = ctr.remaining
        return limits

    def __len__(self) -> int:
        return len(self._counters)

    def first_overflow(
        self, counts: EventCounts, kernel_mode: bool
    ) -> tuple[HardwareCounter, int, int] | None:
        """Find the counter whose overflow lands earliest within ``counts``.

        Earliness is measured as a fraction of the quantum's cycles, assuming
        every event accrues uniformly across the quantum.  Returns
        ``(counter, events_into_quantum, cycles_into_quantum)`` for the
        earliest overflow, or ``None`` if no armed counter overflows.
        """
        best: tuple[HardwareCounter, int, int] | None = None
        cycles = counts.cycles
        for ctr, field_name in self.armed[kernel_mode]:
            delta = getattr(counts, field_name)
            at = ctr.events_to_overflow(delta)
            if at is None:
                continue
            if delta == 0:
                continue
            # Cycle position of the overflow under uniform accrual.
            cyc_at = (at * cycles) // delta if cycles else 0
            if best is None or cyc_at < best[2]:
                best = (ctr, at, cyc_at)
        return best

    def consume_all(self, counts: EventCounts, kernel_mode: bool) -> None:
        """Advance every armed counter by its event delta without raising
        interrupts (used for the post-split remainder bookkeeping of counters
        that did *not* fire, and while NMIs are masked)."""
        for ctr, field_name in self.armed[kernel_mode]:
            delta = getattr(counts, field_name)
            if delta:
                ctr.consume(delta)

"""Profiler configuration (the ``opcontrol`` interface).

The paper's experiments program two events — ``GLOBAL_POWER_EVENTS`` at the
headline period (45 K / 90 K / 450 K cycles) and ``BSQ_CACHE_REFERENCE``
(L2 read misses) at a proportionally smaller period, since misses are far
rarer than cycles.  :meth:`OprofileConfig.paper_config` builds exactly that
pair from a single headline period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.counters import CounterConfig
from repro.hardware.events import event_by_name

__all__ = ["EventSpec", "OprofileConfig"]

#: Ratio between the cycle period and the default cache-miss period.
#: Misses are 2-3 orders of magnitude rarer than cycles; this keeps the
#: miss-sample volume below the cycle-sample volume even for the most
#: cache-hostile benchmark (hsqldb), as any sane opcontrol setup would.
CACHE_PERIOD_DIVISOR = 10

#: Default daemon wakeup period in cycles (oprofiled wakes a few times per
#: second; at the simulator's 3.4 MHz clock this is ~75 ms of machine time).
DEFAULT_DAEMON_PERIOD = 250_000

#: Default kernel sample-buffer capacity in samples.
DEFAULT_BUFFER_CAPACITY = 8192


@dataclass(frozen=True, slots=True)
class EventSpec:
    """One profiled event: mnemonic plus sampling period."""

    event_name: str
    period: int

    def to_counter_config(self) -> CounterConfig:
        return CounterConfig(event=event_by_name(self.event_name), period=self.period)


@dataclass(frozen=True)
class OprofileConfig:
    """Full profiler session configuration.

    Attributes:
        events: events to profile (at least one).
        buffer_capacity: kernel ring-buffer capacity in samples.
        daemon_period: cycles between daemon wakeups.
    """

    events: tuple[EventSpec, ...]
    buffer_capacity: int = DEFAULT_BUFFER_CAPACITY
    daemon_period: int = DEFAULT_DAEMON_PERIOD

    def __post_init__(self) -> None:
        if not self.events:
            raise ConfigError("at least one event must be configured")
        names = [e.event_name for e in self.events]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate events in config: {names}")
        for e in self.events:
            e.to_counter_config()  # validates event name and period
        if self.buffer_capacity < 64:
            raise ConfigError("buffer capacity unreasonably small (< 64)")
        if self.daemon_period <= 0:
            raise ConfigError("daemon period must be positive")

    @property
    def primary_period(self) -> int:
        return self.events[0].period

    @classmethod
    def paper_config(cls, cycle_period: int = 90_000) -> "OprofileConfig":
        """The two-event configuration used throughout the paper's §4."""
        cache_period = max(500, cycle_period // CACHE_PERIOD_DIVISOR)
        return cls(
            events=(
                EventSpec("GLOBAL_POWER_EVENTS", cycle_period),
                EventSpec("BSQ_CACHE_REFERENCE", cache_period),
            )
        )

"""Simulated hardware substrate.

This package models the parts of a Pentium-4-class machine that a sampling
profiler interacts with:

* hardware performance counters (HPCs) programmed with a *reset value*
  (the sampling period) that raise a non-maskable interrupt (NMI) when the
  configured number of events has occurred (:mod:`repro.hardware.counters`),
* the NMI line itself (:mod:`repro.hardware.interrupts`),
* a statistical L2 cache model that draws L2-miss events
  (:mod:`repro.hardware.cache`) for per-workload working sets
  (:mod:`repro.hardware.memory`), and
* a CPU that executes *quanta* of work and splits them at the exact point a
  counter overflows, yielding a precise program-counter value for each
  interrupt (:mod:`repro.hardware.cpu`).

Execution is deterministic: all randomness flows from explicit seeds.
"""

from repro.hardware.events import (
    EVENTS,
    EventCounts,
    HardwareEvent,
    event_by_name,
)
from repro.hardware.counters import CounterBank, CounterConfig, HardwareCounter
from repro.hardware.interrupts import InterruptFrame, NMILine
from repro.hardware.cache import CacheGeometry, StatisticalCacheModel
from repro.hardware.memory import WorkingSet
from repro.hardware.cpu import CPU, CpuMode

__all__ = [
    "EVENTS",
    "EventCounts",
    "HardwareEvent",
    "event_by_name",
    "CounterBank",
    "CounterConfig",
    "HardwareCounter",
    "InterruptFrame",
    "NMILine",
    "CacheGeometry",
    "StatisticalCacheModel",
    "WorkingSet",
    "CPU",
    "CpuMode",
]

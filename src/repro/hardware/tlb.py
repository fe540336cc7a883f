"""Instruction-TLB models.

The P4's ITLB holds 64 entries of 4 KB pages (~256 KB of reach).  A
workload whose live code — boot image hot paths plus compiled bodies —
exceeds that reach takes ITLB misses on control transfers, which is what
the ``ITLB_REFERENCE`` event samples.

Two models mirror the cache pair:

:class:`DirectMappedTlb`
    A real TLB simulator (per-page lookups), used in tests and available
    for detailed studies.

:class:`StatisticalTlbModel`
    The engine's default: per-step miss estimates from the span of code
    the step sweeps and the process's total hot-code footprint relative
    to TLB reach.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["DirectMappedTlb", "StatisticalTlbModel", "PAGE_BITS"]

PAGE_BITS = 12  # 4 KB pages


class DirectMappedTlb:
    """Direct-mapped TLB over virtual page numbers."""

    def __init__(self, entries: int = 64) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("TLB entries must be a positive power of two")
        self.entries = entries
        self._tags = np.full(entries, -1, dtype=np.int64)
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def reach_bytes(self) -> int:
        return self.entries << PAGE_BITS

    def access(self, address: int) -> bool:
        """Touch the page containing ``address``; True on hit."""
        vpn = address >> PAGE_BITS
        slot = vpn & (self.entries - 1)
        if self._tags[slot] == vpn:
            self.hits += 1
            return True
        self.misses += 1
        self._tags[slot] = vpn
        return False

    def reset(self) -> None:
        self._tags.fill(-1)
        self.hits = 0
        self.misses = 0


class StatisticalTlbModel:
    """Per-step ITLB miss estimate.

    A step sweeping ``code_len`` bytes touches ``ceil(code_len / 4K)``
    pages.  If the process's hot code footprint fits the TLB's reach,
    only first-touch (compulsory) misses occur — effectively none at
    steady state; beyond the reach, each page touch misses with
    probability ``1 - reach/footprint`` (uniform replacement pressure),
    and control transfers between steps re-touch entry pages.
    """

    def __init__(self, entries: int = 64, seed: int = 0) -> None:
        if entries <= 0:
            raise ConfigError("TLB entries must be positive")
        self.reach_bytes = entries << PAGE_BITS
        self._rng = np.random.default_rng(seed ^ 0x71B)
        self.misses = 0

    def misses_for_step(self, code_len: int, footprint_bytes: int) -> int:
        """ITLB misses for one step.

        Args:
            code_len: byte span the step's PC sweeps.
            footprint_bytes: the process's total hot code size.
        """
        if code_len < 0 or footprint_bytes < 0:
            raise ConfigError("negative code_len/footprint")
        if footprint_bytes <= self.reach_bytes:
            return 0
        pages = max(1, (code_len + (1 << PAGE_BITS) - 1) >> PAGE_BITS)
        rate = 1.0 - self.reach_bytes / footprint_bytes
        m = int(self._rng.binomial(pages, min(0.95, rate)))
        self.misses += m
        return m

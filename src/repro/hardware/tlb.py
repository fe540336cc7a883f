"""The instruction-TLB model.

The P4's ITLB holds 64 entries of 4 KB pages (~256 KB of reach).  A
workload whose live code — boot image hot paths plus compiled bodies —
exceeds that reach takes ITLB misses on control transfers, which is what
the ``ITLB_REFERENCE`` event samples.

:class:`StatisticalTlbModel` estimates misses per chunk of execution from
the span of code the chunk sweeps and the process's total hot-code
footprint relative to TLB reach.  (A per-page direct-mapped TLB lives in
the tests, as a reference: ``tests/hardware/reference_cache.py``.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["StatisticalTlbModel", "PAGE_BITS"]

PAGE_BITS = 12  # 4 KB pages


class StatisticalTlbModel:
    """Per-chunk ITLB miss estimate.

    A chunk sweeping ``code_len`` bytes touches ``ceil(code_len / 4K)``
    pages.  If the process's hot code footprint fits the TLB's reach,
    only first-touch (compulsory) misses occur — effectively none at
    steady state; beyond the reach, each page touch misses with
    probability ``1 - reach/footprint`` (uniform replacement pressure),
    and control transfers between chunks re-touch entry pages.
    """

    def __init__(self, entries: int = 64, seed: int = 0) -> None:
        if entries <= 0:
            raise ConfigError("TLB entries must be positive")
        self.reach_bytes = entries << PAGE_BITS
        self._rng = np.random.default_rng(seed ^ 0x71B)
        self.misses = 0

    def misses_for_chunks(
        self, code_len: int, footprint_bytes: int, n: int
    ) -> list[int]:
        """ITLB misses for each of ``n`` chunks of one activity.

        Every chunk of an activity sweeps the same ``code_len`` bytes
        under the same ``footprint_bytes`` (the process's total hot code
        size, which changes only at a compile, between activities), so
        the ``n`` draws come from one ``binomial(pages, rate, size=n)``
        call.  On the installed numpy that gives the values, and leaves
        the generator in the state, of ``n`` draws made one at a time
        (pinned by ``tests/hardware/test_numpy_draws.py``).
        """
        if code_len < 0 or footprint_bytes < 0:
            raise ConfigError("negative code_len/footprint")
        if footprint_bytes <= self.reach_bytes or n <= 0:
            return [0] * max(0, n)
        pages = max(1, (code_len + (1 << PAGE_BITS) - 1) >> PAGE_BITS)
        rate = 1.0 - self.reach_bytes / footprint_bytes
        misses = self._rng.binomial(pages, min(0.95, rate), size=n).tolist()
        self.misses += sum(misses)
        return misses

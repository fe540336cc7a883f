"""The L2 cache model.

:class:`StatisticalCacheModel` produces the L2-miss deltas that feed the
``BSQ_CACHE_REFERENCE`` counter: per-working-set analytic miss rates with
binomially distributed draws from seeded generators.  Its rates are
calibrated against a set-associative LRU simulator that lives in the tests
as the reference (``tests/hardware/reference_cache.py``,
``tests/hardware/test_cache_calibration.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.hardware.memory import WorkingSet

__all__ = ["CacheGeometry", "StatisticalCacheModel"]


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True, slots=True)
class CacheGeometry:
    """Size/line/associativity triple with the usual power-of-two rules.

    The paper's machine has a 1 MB L2 with 64-byte lines (Pentium 4 Xeon,
    8-way); :meth:`paper_l2` returns exactly that.
    """

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8

    def __post_init__(self) -> None:
        if not _is_pow2(self.size_bytes):
            raise ConfigError(f"cache size must be a power of two: {self.size_bytes}")
        if not _is_pow2(self.line_bytes):
            raise ConfigError(f"line size must be a power of two: {self.line_bytes}")
        if self.associativity <= 0:
            raise ConfigError("associativity must be positive")
        if self.size_bytes < self.line_bytes * self.associativity:
            raise ConfigError("cache smaller than one set")
        if self.num_sets * self.line_bytes * self.associativity != self.size_bytes:
            raise ConfigError("geometry does not tile the cache size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @classmethod
    def paper_l2(cls) -> "CacheGeometry":
        return cls(size_bytes=1 << 20, line_bytes=64, associativity=8)


class StatisticalCacheModel:
    """Fast per-working-set miss model.

    For each working set the expected miss rate comes from
    :meth:`WorkingSet.expected_miss_rate`; actual misses for a batch of ``n``
    accesses are a binomial draw, so totals fluctuate realistically while the
    mean is controlled.  Draws use a generator seeded from ``seed`` mixed
    with the working set's own (seed, base, size) identity, so two
    identically-constructed machines produce identical miss streams even
    though working-set instance ids differ.
    """

    def __init__(self, geometry: CacheGeometry, seed: int = 0) -> None:
        self.geometry = geometry
        self._seed = seed
        #: ws_id -> (the working set's draw stream, its expected miss rate)
        self._streams: dict[int, tuple[np.random.Generator, float]] = {}
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def _stream_for(self, ws: WorkingSet) -> tuple[np.random.Generator, float]:
        stream = (
            np.random.default_rng(
                [self._seed, ws.seed & 0x7FFFFFFF, ws.base, ws.size]
            ),
            ws.expected_miss_rate(self.geometry.size_bytes),
        )
        self._streams[ws.ws_id] = stream
        return stream

    def misses_for(self, ws: WorkingSet, n_accesses: int) -> int:
        """Return the number of L2 misses for ``n_accesses`` by ``ws``."""
        if n_accesses < 0:
            raise ConfigError(f"negative access count {n_accesses}")
        if n_accesses == 0:
            return 0
        stream = self._streams.get(ws.ws_id)
        if stream is None:
            stream = self._stream_for(ws)
        rng, rate = stream
        m = int(rng.binomial(n_accesses, rate))
        self.hits += n_accesses - m
        self.misses += m
        return m

"""L2 cache models.

Two interchangeable models produce the L2-miss deltas that feed the
``BSQ_CACHE_REFERENCE`` counter:

:class:`SetAssociativeCache`
    A real set-associative LRU cache simulator (numpy-backed tag array).
    Used by the engine's ``detailed_cache=True`` mode and heavily exercised
    by unit and property tests.

:class:`StatisticalCacheModel`
    The fast default: per-working-set analytic miss rates with binomially
    distributed draws from a seeded generator.  Two orders of magnitude
    faster and calibrated against the detailed model (see
    ``tests/hardware/test_cache_calibration.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.hardware.memory import AddressStream, WorkingSet

__all__ = ["CacheGeometry", "SetAssociativeCache", "StatisticalCacheModel"]


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


class SetAssociativeCache:
    """Set-associative cache with true-LRU replacement.

    Tags are held in an ``(num_sets, associativity)`` int64 array; a parallel
    array holds last-use timestamps, so LRU selection is a single argmin per
    access.  ``-1`` marks an invalid way.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        sets, ways = geometry.num_sets, geometry.associativity
        self._tags = np.full((sets, ways), -1, dtype=np.int64)
        self._stamps = np.zeros((sets, ways), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0
        # Precomputed shifts for address decomposition.
        self._line_shift = geometry.line_bytes.bit_length() - 1
        self._set_mask = sets - 1

    def reset(self) -> None:
        """Invalidate every line and zero the statistics."""
        self._tags.fill(-1)
        self._stamps.fill(0)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        block = address >> self._line_shift
        set_idx = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        self._clock += 1
        row = self._tags[set_idx]
        ways = np.nonzero(row == tag)[0]
        if ways.size:
            self.hits += 1
            self._stamps[set_idx, ways[0]] = self._clock
            return True
        self.misses += 1
        victim = int(np.argmin(self._stamps[set_idx]))
        empty = np.nonzero(row == -1)[0]
        if empty.size:
            victim = int(empty[0])
        self._tags[set_idx, victim] = tag
        self._stamps[set_idx, victim] = self._clock
        return False

    def access_stream(self, stream: AddressStream) -> tuple[int, int]:
        """Run a whole address stream; returns ``(hits, misses)`` for it."""
        h0, m0 = self.hits, self.misses
        for a in stream.addresses:
            self.access(int(a))
        return self.hits - h0, self.misses - m0

    def resident(self, address: int) -> bool:
        """True if the line containing ``address`` is currently cached
        (no LRU update; used by tests)."""
        block = address >> self._line_shift
        set_idx = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        return bool((self._tags[set_idx] == tag).any())


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

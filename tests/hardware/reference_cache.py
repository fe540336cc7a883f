"""Reference memory-hierarchy models: the oracles the statistical models
are calibrated and checked against.

* :class:`SetAssociativeCache` — a real set-associative LRU cache
  simulator (numpy-backed tag array); the statistical L2 model's miss
  rates are calibrated against it (``test_cache_calibration.py``).
* :class:`AddressStreamer` — address streams over one
  :class:`~repro.hardware.memory.WorkingSet`, the input of the simulator.
* :class:`DetailedCacheAdapter` — the simulator behind the statistical
  model's ``misses_for`` interface, so a test can put it in an engine in
  the statistical model's place.
* :class:`DirectMappedTlb` — a per-page TLB simulator.

Nothing in ``src/`` uses them: the engine runs the statistical models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.hardware.cache import CacheGeometry
from repro.hardware.memory import WorkingSet
from repro.hardware.tlb import PAGE_BITS


@dataclass(frozen=True, slots=True)
class AddressStream:
    """A batch of byte addresses plus the working set that produced them."""

    addresses: np.ndarray
    working_set_id: int

    def __len__(self) -> int:
        return int(self.addresses.shape[0])


class AddressStreamer:
    """Address streams over one working set.

    A ``locality`` fraction of each stream walks sequentially (stride =
    cache line) through the hot sub-region; the remainder lands uniformly
    in the whole working set, drawn from a generator seeded with the
    working set's seed.  The sequential cursor persists across calls, so
    successive streams re-traverse the same hot lines (temporal reuse).
    """

    def __init__(self, ws: WorkingSet) -> None:
        self.ws = ws
        self._rng = np.random.default_rng(ws.seed)
        self._cursor = 0

    def stream(self, n: int, line: int = 64) -> AddressStream:
        """Generate the next ``n`` addresses."""
        if n <= 0:
            raise ConfigError(f"stream length must be positive, got {n}")
        ws = self.ws
        hot_size = max(line, int(ws.size * ws.hot_fraction))
        n_hot = int(round(n * ws.locality))
        n_cold = n - n_hot

        parts = []
        if n_hot:
            offs = (self._cursor + np.arange(n_hot, dtype=np.int64) * line) % hot_size
            self._cursor = int((self._cursor + n_hot * line) % hot_size)
            parts.append(ws.base + offs)
        if n_cold:
            cold = self._rng.integers(0, ws.size, size=n_cold, dtype=np.int64)
            parts.append(ws.base + cold)
        addrs = np.concatenate(parts) if len(parts) > 1 else parts[0]
        return AddressStream(addresses=addrs, working_set_id=ws.ws_id)


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
        (no LRU update)."""
        block = address >> self._line_shift
        set_idx = block & self._set_mask
        tag = block >> (self._set_mask.bit_length())
        return bool((self._tags[set_idx] == tag).any())


class DetailedCacheAdapter:
    """The set-associative simulator behind the statistical model's
    ``misses_for`` interface: each call runs the next address stream of
    the working set through the cache and returns its misses."""

    def __init__(self, cache: SetAssociativeCache) -> None:
        self.cache = cache
        self._streamers: dict[int, AddressStreamer] = {}

    def misses_for(self, ws: WorkingSet, n_accesses: int) -> int:
        streamer = self._streamers.get(ws.ws_id)
        if streamer is None:
            streamer = self._streamers[ws.ws_id] = AddressStreamer(ws)
        stream = streamer.stream(n_accesses, line=self.cache.geometry.line_bytes)
        _, misses = self.cache.access_stream(stream)
        return misses


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

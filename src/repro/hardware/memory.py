"""Working sets: the data regions the simulated code touches.

Each workload method owns a :class:`WorkingSet` describing the region of
the (simulated) data heap it touches and how it touches it.  The
statistical cache model (:class:`repro.hardware.cache.StatisticalCacheModel`)
turns a working set's expected miss rate into the L2-miss event deltas
that ultimately drive ``BSQ_CACHE_REFERENCE`` sampling, drawing from a
stream seeded with the working set's own identity, so a given workload
produces the same miss pattern run after run regardless of what else the
simulator does.  (Address streams over a working set, for the
set-associative reference cache, live in the tests:
``tests/hardware/reference_cache.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = ["WorkingSet"]


@dataclass
class WorkingSet:
    """A method's data-access behaviour.

    Attributes:
        base: lowest byte address of the region.
        size: region size in bytes.
        locality: in [0, 1]; the fraction of accesses that hit a small hot
            sub-region (sequential-ish), the rest being uniform over the full
            working set.  Higher locality => fewer cache misses.
        hot_fraction: size of the hot sub-region relative to ``size``.
        seed: seed of this working set's draw streams.
    """

    base: int
    size: int
    locality: float = 0.8
    hot_fraction: float = 0.1
    seed: int = 0
    #: unique per working set, in creation order
    ws_id: int = field(init=False, default=0, repr=False)

    _next_id = 0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ConfigError(f"working set size must be positive, got {self.size}")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigError(f"locality must be in [0,1], got {self.locality}")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigError(
                f"hot_fraction must be in (0,1], got {self.hot_fraction}"
            )
        self.ws_id = WorkingSet._next_id
        WorkingSet._next_id += 1

    def expected_miss_rate(self, cache_bytes: int) -> float:
        """Analytic L2 miss-rate estimate used by the statistical model.

        Cold (uniform) accesses miss with probability ``1 - cache/size``
        when the working set exceeds the cache (uniform-reuse
        approximation), floored at a small compulsory rate.

        Hot accesses stream cyclically through the hot sub-region: under
        LRU that hits almost always while the region fits the cache and
        misses almost always once it is ~1.5x the cache (the classic LRU
        cyclic cliff), with a linear ramp between — calibrated against the
        set-associative simulator in
        ``tests/hardware/test_cache_calibration.py``.
        """
        if cache_bytes <= 0:
            raise ConfigError("cache size must be positive")
        compulsory = 0.005
        if self.size <= cache_bytes:
            cold_rate = compulsory
        else:
            cold_rate = max(compulsory, 1.0 - cache_bytes / self.size)
        hot_size = max(64, int(self.size * self.hot_fraction))
        streaming = 0.98
        if hot_size <= cache_bytes // 2:
            hot_rate = compulsory
        elif hot_size >= cache_bytes + cache_bytes // 2:
            hot_rate = streaming
        else:
            ramp = (hot_size - cache_bytes / 2) / cache_bytes
            hot_rate = compulsory + (streaming - compulsory) * ramp
        return self.locality * hot_rate + (1.0 - self.locality) * cold_rate

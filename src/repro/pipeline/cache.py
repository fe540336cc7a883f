"""Epoch-aware PC resolution memoization.

Profiles have extreme PC locality — a hot loop delivers the same
interrupted PC thousands of times — so the resolver chain keeps a bounded
memo in front of the stage walk, keyed on
``(pc, epoch, kernel_mode, task_id, domain_id)``.

**Why the key is sound.**  Every input a stage consults is immutable
during a post-processing pass: symbol tables, VMA sets, and boot-image
maps are the session's final snapshot, and the epoch code maps are
immutable *per epoch* — the backward epoch-walk for ``(epoch, pc)`` can
never change once the session's maps are on disk.  The one time-varying
input the profiler tracks (which JIT method occupied an address) is
exactly what the epoch stamp captures, so putting ``epoch`` in the key
makes even a memoized ``(unresolved jit)`` verdict permanent: map *e* and
everything below it will never gain the address.  ``domain_id`` keeps
multi-stack (Xen) streams from aliasing across guests.

A memo entry records *how* the chain resolved the key — the claiming
stage and its outcome — and the chain counts claims from the entry, hit
or miss alike, so memoized and unmemoized runs report identical
statistics (golden-parity tested).  The memo stops inserting once full
rather than evicting: a profile's distinct-key working set fits the
default bound, and a full memo only turns later hits into walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Mapping

from repro.errors import ProfilerError

__all__ = [
    "DEFAULT_RESOLVE_CACHE_SIZE",
    "CachedResolution",
    "ResolutionCache",
]

#: Default entry bound for a chain's resolution memo.  Sized for the
#: distinct-PC working set of a long session (hot profiles concentrate on
#: far fewer PCs); one entry is a small tuple-keyed dataclass, so the
#: worst-case footprint is a few MB.
DEFAULT_RESOLVE_CACHE_SIZE = 1 << 16


@dataclass(frozen=True, slots=True)
class CachedResolution:
    """The outcome of one stage walk for one key.

    ``claim`` is ``(claim_index, outcome)``: the position of the claiming
    stage in the chain (``len(stages)`` for the terminal fallback) and the
    stage's outcome label (the JIT stage's ``own``/``earlier``/``blocked``
    /``unresolved``; None for stages without one).  It is the key the
    chain counts claims under.
    """

    image: str
    symbol: str
    offset: int
    claim: tuple[int, str | None]


class ResolutionCache:
    """Bounded dict memo from sample key to :class:`CachedResolution`.

    ``hits`` and ``misses`` count *samples*: a probed key that is missing
    costs one miss (its walk), and every other sample of the key is a
    hit, so ``hits + misses`` is the number of samples resolved.
    """

    __slots__ = ("capacity", "hits", "misses", "_entries", "_absorbed_size")

    def __init__(self, capacity: int = DEFAULT_RESOLVE_CACHE_SIZE) -> None:
        if capacity <= 0:
            raise ProfilerError(f"non-positive cache capacity {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Largest entry count reported by any absorbed worker memo (see
        #: :meth:`absorb`); 0 until a parallel run merges in.
        self._absorbed_size = 0
        self._entries: dict[tuple, CachedResolution] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, groups: Mapping[tuple, int]
    ) -> tuple[dict[tuple, CachedResolution], list[tuple]]:
        """Probe each distinct key of ``groups`` (key → sample count)
        once; returns the entries found and the keys missing, in
        ``groups`` order, and counts the samples as hits and misses."""
        found: dict[tuple, CachedResolution] = {}
        missing: list[tuple] = []
        get = self._entries.get
        for key in groups:
            entry = get(key)
            if entry is None:
                missing.append(key)
            else:
                found[key] = entry
        self.misses += len(missing)
        self.hits += sum(groups.values()) - len(missing)
        return found, missing

    def store(self, entries: Mapping[tuple, CachedResolution]) -> None:
        """Insert freshly walked entries while the memo has room."""
        room = self.capacity - len(self._entries)
        self._entries.update(islice(entries.items(), max(room, 0)))

    def __getstate__(self) -> dict:
        """Pickle counters and geometry, **not** the entry table: a
        pickled memo travels to a shard worker, which zeroes it at once
        (``ResolverChain.reset_stats``)."""
        return {
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "_absorbed_size": self._absorbed_size,
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.hits = state["hits"]
        self.misses = state["misses"]
        self._absorbed_size = state["_absorbed_size"]
        self._entries = {}

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self._absorbed_size = 0

    def absorb(self, hits: int, misses: int, size: int) -> None:
        """Fold a worker memo's counters into this one (stat merging).

        Worker memos are private copies filled over overlapping key
        sets, so sizes are **not** additive — summing would double-count
        every hot key shared between shards.  The merged ``size`` reports
        the *maximum* single-worker working set, a lower bound on the
        distinct-key population that is exact when one worker saw every
        key.
        """
        self.hits += hits
        self.misses += misses
        self._absorbed_size = max(self._absorbed_size, size)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_dict(self) -> dict[str, int | float]:
        return {
            "capacity": self.capacity,
            "size": max(len(self._entries), self._absorbed_size),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }

"""The ground-truth ledger.

While the engine executes, it records exactly where every cycle and every
L2 miss went — per (image, symbol) and per vertical layer.  This is the
oracle a real profiler never has; we use it to

* validate sampling-profile accuracy (does VIProf's per-method time share
  converge to the truth?), and
* decompose overhead (how many cycles did the NMI handler, the daemon, and
  the VM agent actually consume?).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.profiling.model import Layer, TruthLabel

__all__ = ["TruthEntry", "TruthLedger"]


@dataclass
class TruthEntry:
    cycles: int = 0
    l2_misses: int = 0


@dataclass
class TruthLedger:
    """Cycle/miss accounting by symbol and by layer."""

    by_symbol: dict[tuple[str, str], TruthEntry] = field(default_factory=dict)
    by_layer: dict[Layer, TruthEntry] = field(default_factory=dict)
    idle_cycles: int = 0
    total_cycles: int = 0
    total_misses: int = 0
    #: (image, symbol) -> (layer, its by_symbol entry, that layer's
    #: by_layer entry), so recording a label costs one lookup
    _entries: dict[tuple[str, str], tuple[Layer, TruthEntry, TruthEntry]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def record(self, truth: TruthLabel, cycles: int, l2_misses: int = 0) -> None:
        key = (truth.image, truth.symbol)
        entries = self._entries.get(key)
        if entries is None or entries[0] is not truth.layer:
            entries = self._entries[key] = (
                truth.layer,
                self.by_symbol.setdefault(key, TruthEntry()),
                self.by_layer.setdefault(truth.layer, TruthEntry()),
            )
        _, entry, lentry = entries
        entry.cycles += cycles
        entry.l2_misses += l2_misses
        lentry.cycles += cycles
        lentry.l2_misses += l2_misses
        self.total_cycles += cycles
        self.total_misses += l2_misses

    def record_idle(self, cycles: int) -> None:
        self.idle_cycles += cycles

    # ------------------------------------------------------------------

    def cycle_share(self, key: tuple[str, str]) -> float:
        """Fraction of all non-idle cycles spent in (image, symbol)."""
        if not self.total_cycles:
            return 0.0
        e = self.by_symbol.get(key)
        return e.cycles / self.total_cycles if e else 0.0

    def layer_share(self, layer: Layer) -> float:
        if not self.total_cycles:
            return 0.0
        e = self.by_layer.get(layer)
        return e.cycles / self.total_cycles if e else 0.0

    def miss_share(self, key: tuple[str, str]) -> float:
        if not self.total_misses:
            return 0.0
        e = self.by_symbol.get(key)
        return e.l2_misses / self.total_misses if e else 0.0

    def layer_cycles(self, layer: Layer) -> int:
        e = self.by_layer.get(layer)
        return e.cycles if e else 0

    def top_symbols(self, limit: int = 10) -> list[tuple[tuple[str, str], TruthEntry]]:
        items = sorted(
            self.by_symbol.items(), key=lambda kv: (-kv[1].cycles, kv[0])
        )
        return items[:limit]

    def format_table(self, limit: int = 15) -> str:
        lines = [f"{'cycles %':>9} {'miss %':>8}  image : symbol"]
        for (image, symbol), e in self.top_symbols(limit):
            lines.append(
                f"{100 * e.cycles / max(1, self.total_cycles):9.4f} "
                f"{100 * e.l2_misses / max(1, self.total_misses):8.4f}  "
                f"{image} : {symbol}"
            )
        return "\n".join(lines)

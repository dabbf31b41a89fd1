"""Memory-system models for tile loads.

The paper evaluates with an ideal memory ("we assume that the core is not
stalled by memory"), which :class:`IdealMemory` reproduces — every tile
load completes at the fixed L1 latency plus the 16-cycle row transfer.

:class:`CacheHierarchy` is an *extension* beyond the paper: a two-level
set-associative LRU cache model that lets the ablation benches ask when the
no-stall assumption breaks — RASA designs consume tile operands up to 6x
faster than the serialized baseline, so they are the first to expose a slow
memory system.  The model is deliberately simple (per-row line lookups, a
fixed miss penalty per level, misses within one tile load overlapped up to
a configurable memory-level-parallelism factor) and documented as such.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Protocol

from repro.errors import ConfigError
from repro.tile.layout import ROWS
from repro.utils.validation import check_positive


class MemoryModel(Protocol):
    """Structural interface of a tile-load memory model.

    Anything with these two methods plugs into the core models'
    ``memory=`` parameter; :class:`IdealMemory` and
    :class:`CacheHierarchy` are the in-tree implementations.
    """

    def tile_load_latency(self, address: int, stride: int) -> int:
        """Cycles from issue to data-complete for one 16-row tile load."""
        ...

    def reset(self) -> None:
        """Clear any accumulated state between runs."""
        ...


class IdealMemory:
    """The paper's memory model: fixed-latency, never stalls the core."""

    def __init__(self, l1_latency: int = 4, transfer_cycles: int = ROWS) -> None:
        check_positive("l1_latency", l1_latency)
        check_positive("transfer_cycles", transfer_cycles)
        self.l1_latency = l1_latency
        self.transfer_cycles = transfer_cycles

    def tile_load_latency(self, address: int, stride: int) -> int:
        """Cycles from issue to data-complete for one 16-row tile load."""
        return self.l1_latency + self.transfer_cycles

    def reset(self) -> None:
        """No state to clear."""


@dataclasses.dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level: capacity, associativity, and hit latency."""

    name: str
    size_kib: int
    ways: int
    hit_latency: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        check_positive("size_kib", self.size_kib)
        check_positive("ways", self.ways)
        check_positive("hit_latency", self.hit_latency)
        check_positive("line_bytes", self.line_bytes)
        if self.num_sets <= 0:
            raise ConfigError(f"cache {self.name}: too small for {self.ways} ways")

    @property
    def num_sets(self) -> int:
        return (self.size_kib * 1024) // (self.line_bytes * self.ways)


class _CacheLevel:
    """Set-associative LRU tag store (timestamps as recency)."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        # set index -> {tag: last-use stamp}
        self._sets: List[Dict[int, int]] = [dict() for _ in range(config.num_sets)]
        self._stamp = 0

    def access(self, address: int) -> bool:
        """Look up the line containing ``address``; fill on miss. True = hit."""
        line = address // self.config.line_bytes
        index = line % self.config.num_sets
        tag = line // self.config.num_sets
        tags = self._sets[index]
        self._stamp += 1
        hit = tag in tags
        if not hit and len(tags) >= self.config.ways:
            victim = min(tags, key=tags.__getitem__)
            del tags[victim]
        tags[tag] = self._stamp
        return hit

    def reset(self) -> None:
        for tags in self._sets:
            tags.clear()
        self._stamp = 0


@dataclasses.dataclass(frozen=True)
class HierarchyConfig:
    """Two-level hierarchy + DRAM, Skylake-ish defaults."""

    l1: CacheLevelConfig = CacheLevelConfig("L1", size_kib=32, ways=8, hit_latency=4)
    l2: CacheLevelConfig = CacheLevelConfig("L2", size_kib=1024, ways=16, hit_latency=14)
    dram_latency: int = 120
    #: Outstanding misses a tile load can overlap (MSHR-style MLP).
    mlp: int = 8
    transfer_cycles: int = ROWS

    def __post_init__(self) -> None:
        check_positive("dram_latency", self.dram_latency)
        check_positive("mlp", self.mlp)
        check_positive("transfer_cycles", self.transfer_cycles)


class CacheHierarchy:
    """Two-level LRU cache model for tile loads (extension, see module doc).

    A tile load touches one line per 64 B row (16 rows, strided).  Latency
    model: the slowest row's fill latency (L1/L2/DRAM), with misses beyond
    the ``mlp`` window serialized in batches, plus the fixed row-transfer
    occupancy.
    """

    def __init__(self, config: HierarchyConfig = HierarchyConfig()) -> None:
        self.config = config
        self._l1 = _CacheLevel(config.l1)
        self._l2 = _CacheLevel(config.l2)
        self.l1_hits = 0
        self.l2_hits = 0
        self.dram_fills = 0

    @property
    def l1_latency(self) -> int:
        return self.config.l1.hit_latency

    @property
    def transfer_cycles(self) -> int:
        return self.config.transfer_cycles

    def _row_latency(self, address: int) -> int:
        if self._l1.access(address):
            self.l1_hits += 1
            return self.config.l1.hit_latency
        if self._l2.access(address):
            self.l2_hits += 1
            return self.config.l2.hit_latency
        self.dram_fills += 1
        return self.config.dram_latency

    def tile_load_latency(self, address: int, stride: int) -> int:
        """Latency of one 16-row tile load through the hierarchy."""
        latencies = [self._row_latency(address + r * stride) for r in range(ROWS)]
        worst = max(latencies)
        misses = sum(1 for lat in latencies if lat > self.config.l1.hit_latency)
        # Misses overlap up to `mlp` at a time; each extra batch serializes
        # another worst-case fill.
        batches = max(0, -(-misses // self.config.mlp) - 1)
        return worst + batches * worst + self.config.transfer_cycles

    def reset(self) -> None:
        self._l1.reset()
        self._l2.reset()
        self.l1_hits = self.l2_hits = self.dram_fills = 0

    @property
    def accesses(self) -> int:
        return self.l1_hits + self.l2_hits + self.dram_fills

    def hit_rates(self) -> Dict[str, float]:
        """Per-level hit rates over all row accesses so far."""
        total = self.accesses
        if not total:
            return {"l1": 0.0, "l2": 0.0, "dram": 0.0}
        return {
            "l1": self.l1_hits / total,
            "l2": self.l2_hits / total,
            "dram": self.dram_fills / total,
        }

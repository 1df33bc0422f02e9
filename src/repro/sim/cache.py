"""Set-associative cache model with LRU replacement.

Models the on-chip cache the survey's engines sit behind (Figure 2c):
configurable size/line/associativity, write-back or write-through, with or
without write allocation.  The cache is a *timing and coherence* model: line
data content is owned by the surrounding :class:`repro.sim.system`, which
keeps plaintext in the cache and ciphertext in external memory.  Its
access semantics live in one place, the executor in
:mod:`repro.sim.fastpath`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Set

__all__ = ["WritePolicy", "CacheConfig", "Cache"]


class WritePolicy(Enum):
    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache level."""

    size: int = 16 * 1024
    line_size: int = 32
    associativity: int = 4
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    write_allocate: bool = True
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry parameters must be positive")
        if self.size % (self.line_size * self.associativity) != 0:
            raise ValueError(
                f"size {self.size} not divisible by line_size*assoc "
                f"({self.line_size}*{self.associativity})"
            )
        if self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.associativity)


class Cache:
    """LRU set-associative cache.

    Addresses are byte addresses; the cache tracks lines by line address
    (``addr // line_size``).  The state is list-native — one line list per
    set plus one dirty set — and holds no access logic of its own: the
    executor (:func:`repro.sim.fastpath.chunk_consumer`) works on it in
    place for every L1, and so does a two-level hierarchy's L2 port
    (:class:`repro.sim.hierarchy.TwoLevelSystem`).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        #: Resident line numbers per set, LRU first and MRU last.
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        #: Resident lines holding stores not yet written back.
        self._dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no LRU update)."""
        line = addr // self.config.line_size
        return line in self._sets[line % self.config.num_sets]

    def flush(self) -> List[int]:
        """Evict everything; returns byte addresses of dirty lines."""
        line_size = self.config.line_size
        dirty = [line * line_size for lines in self._sets for line in lines
                 if line in self._dirty]
        for lines in self._sets:
            lines.clear()
        self._dirty.clear()
        self.writebacks += len(dirty)
        return dirty

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = self.writebacks = 0

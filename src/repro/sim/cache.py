"""Set-associative cache model with LRU replacement.

Models the on-chip cache the survey's engines sit behind (Figure 2c):
configurable size/line/associativity, write-back or write-through, with or
without write allocation.  The cache is a *timing and coherence* model: line
data content is owned by the surrounding :class:`repro.sim.system`, which
keeps plaintext in the cache and ciphertext in external memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Set

from ..obs import EventSink, TraceEvent

__all__ = ["WritePolicy", "CacheConfig", "CacheResult", "Cache"]


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


@dataclass
class CacheResult:
    """Outcome of one access: hit/miss plus the bus work it triggers."""

    hit: bool
    line_addr: int
    writeback_addr: Optional[int] = None   # dirty victim to write to memory
    evicted_line: Optional[int] = None     # victim line address (dirty or not)
    fill_needed: bool = False              # line must be fetched from memory
    through_write: bool = False            # store must also go to memory now


class Cache:
    """LRU set-associative cache.

    Addresses are byte addresses; the cache tracks lines by line address
    (``addr // line_size``).  :meth:`access` updates state and reports what
    external traffic the access causes; the caller performs that traffic.
    The state is list-native — one line list per set plus one dirty set —
    and :func:`repro.sim.fastpath.execute` works on it in place.
    """

    def __init__(self, config: CacheConfig,
                 sink: Optional[EventSink] = None):
        self.config = config
        #: Resident line numbers per set, LRU first and MRU last.
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        #: Resident lines holding stores not yet written back.
        self._dirty: Set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.sink = sink
        #: Optional cycle source so emitted events carry timestamps.
        self.clock: Optional[Callable[[], int]] = None

    def _emit(self, kind: str, addr: int) -> None:
        if self.sink is not None:
            self.sink.emit(TraceEvent(
                kind=kind, addr=addr, size=self.config.line_size,
                cycle=self.clock() if self.clock else 0,
            ))

    def _set_index(self, line_addr: int) -> int:
        return line_addr % self.config.num_sets

    def line_addr(self, addr: int) -> int:
        return addr // self.config.line_size

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no LRU update)."""
        line = self.line_addr(addr)
        return line in self._sets[self._set_index(line)]

    def access(self, addr: int, is_write: bool) -> CacheResult:
        """Perform one access; returns the external traffic required.

        For a write-through cache, stores propagate to memory whether they
        hit or miss; for write-back, stores mark the line dirty and the
        write reaches memory only on eviction.
        """
        cfg = self.config
        line = self.line_addr(addr)
        lines = self._sets[self._set_index(line)]
        write_back = cfg.write_policy is WritePolicy.WRITE_BACK

        if line in lines:
            if lines[-1] != line:
                lines.remove(line)
                lines.append(line)
            self.hits += 1
            # Guard inline: the hit path runs once per access, and the
            # disabled-observability cost budget is one is-None test.
            if self.sink is not None:
                self._emit("hit", addr)
            if is_write and write_back:
                self._dirty.add(line)
            return CacheResult(hit=True, line_addr=line,
                               through_write=is_write and not write_back)

        self.misses += 1
        if self.sink is not None:
            self._emit("miss", addr)

        if is_write and not cfg.write_allocate:
            # Store miss bypasses the cache entirely.
            return CacheResult(
                hit=False, line_addr=line, fill_needed=False, through_write=True
            )

        writeback_addr = None
        evicted_line = None
        if len(lines) >= cfg.associativity:
            evicted_line = lines.pop(0)
            self.evictions += 1
            self._emit("eviction", evicted_line * cfg.line_size)
            if evicted_line in self._dirty:
                self._dirty.discard(evicted_line)
                self.writebacks += 1
                writeback_addr = evicted_line * cfg.line_size
                self._emit("writeback", writeback_addr)

        lines.append(line)
        if is_write and write_back:
            self._dirty.add(line)
        return CacheResult(
            hit=False,
            line_addr=line,
            writeback_addr=writeback_addr,
            evicted_line=evicted_line,
            fill_needed=True,
            through_write=is_write and not write_back,
        )

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

"""Two-level cache hierarchy with a movable encryption boundary.

The survey's placement discussion (Figure 7) has exactly two points because
its systems have one cache.  With an L2 the question generalizes: the EDU
can sit between L2 and memory (only off-chip traffic pays crypto, both
caches hold plaintext) or between L1 and L2 (the large L2 holds ciphertext
— tolerating on-chip probing of the L2 arrays, the class-III concern §4
raises — at the price of crypto on every L1 miss).

:class:`TwoLevelSystem` implements both, functionally, on the simulator's
one executor.  Its L1 is a :class:`~repro.sim.system.SecureSystem` run
through :func:`repro.sim.fastpath.execute`; that system's port is an
:class:`_L2Port`, a line-granular L2 in front of external memory.  With
the EDU at the L2-memory boundary the L1 runs :class:`NullEngine` and the
engine fills and spills the L2; with the EDU at the L1-L2 boundary the
engine services the L1's fills and writebacks through the port, and the
L2 moves ciphertext to and from memory untouched.  The port holds lines
at their own addresses, so that boundary rejects, at construction, an
engine whose fill reads more (its own ``fill_lines`` or a ``_verify_fill``
check).  Both levels must be write-back with write-allocate: the port
moves whole lines only.
"""

from __future__ import annotations

import weakref
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..core.engine import BusEncryptionEngine, MemoryPort, NullEngine
from ..obs import EventSink
from ..traces.trace import Access, Trace
from .cache import Cache, CacheConfig, WritePolicy
from .fastpath import execute
from .memory import MemoryConfig
from .system import SecureSystem, SimReport

__all__ = ["TwoLevelSystem", "EDU_L2_MEMORY", "EDU_L1_L2"]

EDU_L2_MEMORY = "l2-memory"
EDU_L1_L2 = "l1-l2"


class _L2Port:
    """The L1's memory port: a line-granular L2 in front of ``below``.

    :meth:`read_lines` takes a group of L1 fills and :meth:`write_lines`
    a group of L1 writebacks (whole lines: no fill), in the L1's order;
    :meth:`read` and :meth:`write` are one-line groups.  Both work in
    place on ``cache``'s LRU lists, dirty set and counters and cost its
    hit latency; a miss evicts the LRU line, spilling it through
    ``below`` when dirty, and a read miss fills through ``below``.  Spill
    cycles reach the caller only without a write buffer.  Reports
    hit/miss/eviction/writeback to ``sink``, stamped with the group's
    cycle.
    """

    def __init__(self, cache: Cache, below: BusEncryptionEngine,
                 port: MemoryPort, write_buffer: bool,
                 sink: Optional[EventSink], clock: Callable[[], int]):
        self.cache = cache
        self.below = below
        self.port = port
        self.write_buffer = write_buffer
        self.sink = sink
        self.clock = clock
        #: Content of resident lines: plaintext when the EDU is below the
        #: L2, ciphertext when it is above.
        self.data: Dict[int, bytes] = {}

    def _note(self, kind: str, line: int, cycle: int) -> None:
        size = self.cache.config.line_size
        self.sink.note(kind, addr=line * size, size=size, cycle=cycle)

    def _lookup(self, line: int, is_write: bool, cycle: int
                ) -> Tuple[bool, int]:
        """Touch ``line``; returns (hit, cycles so far)."""
        cache = self.cache
        cfg = cache.config
        lines = cache._sets[line % cfg.num_sets]
        sink = self.sink
        cycles = cfg.hit_latency
        hit = line in lines
        if hit:
            if lines[-1] != line:
                lines.remove(line)
                lines.append(line)
            cache.hits += 1
            if sink is not None:
                self._note("hit", line, cycle)
        else:
            cache.misses += 1
            if sink is not None:
                self._note("miss", line, cycle)
            if len(lines) >= cfg.associativity:
                victim = lines.pop(0)
                cache.evictions += 1
                if sink is not None:
                    self._note("eviction", victim, cycle)
                data = self.data.pop(victim, None)
                if victim in cache._dirty:
                    cache._dirty.discard(victim)
                    cache.writebacks += 1
                    if sink is not None:
                        self._note("writeback", victim, cycle)
                    cycles += self._spill([(victim, data)])
            lines.append(line)
        if is_write:
            cache._dirty.add(line)
        return hit, cycles

    def _spill(self, items: List[Tuple[int, Optional[bytes]]]) -> int:
        """Spill ``(line, data)`` items as one group; returns the cycles
        the caller waits for."""
        size = self.cache.config.line_size
        cycles = self.below.spill_lines(self.port, [
            (line * size, data if data is not None else bytes(size))
            for line, data in items])
        return 0 if self.write_buffer else sum(cycles)

    def read_lines(self, addrs: Sequence[int], nbytes: int
                   ) -> Iterator[Tuple[int, bytes, int]]:
        """Fetch each line at ``addrs`` for the L1, in order; yields each
        one's (addr, data, cycles) before the next is looked up.  The group
        shares one cycle stamp; the L2's state follows its traffic line by
        line."""
        size = self.cache.config.line_size
        cycle = self.clock()
        for addr in addrs:
            line = addr // size
            hit, cycles = self._lookup(line, False, cycle)
            if hit:
                data = self.data.get(line)
                yield addr, (data if data is not None
                             else bytes(nbytes)), cycles
                continue
            data, fill_cycles = self.below.fill_line(self.port, addr, nbytes)
            self.data[line] = data = bytes(data)
            yield addr, data, cycles + fill_cycles

    def write_lines(self, items: Sequence[Tuple[int, bytes]]
                    ) -> Iterator[Tuple[int, bytes, int]]:
        """Take whole-line L1 writebacks of ``(addr, data)`` items, in
        order; yields each one's (addr, data, cycles)."""
        size = self.cache.config.line_size
        cycle = self.clock()
        for addr, data in items:
            line = addr // size
            _, cycles = self._lookup(line, True, cycle)
            self.data[line] = bytes(data)
            yield addr, data, cycles

    def read(self, addr: int, nbytes: int) -> Tuple[bytes, int]:
        """Fetch one line: a one-line :meth:`read_lines`."""
        [(_, data, cycles)] = self.read_lines((addr,), nbytes)
        return data, cycles

    def write(self, addr: int, data: bytes) -> int:
        """Take one writeback: a one-line :meth:`write_lines`."""
        [(_, _, cycles)] = self.write_lines(((addr, data),))
        return cycles

    def flush(self) -> int:
        """Spill every dirty line as one group, then ``below``'s own
        buffer; returns the cycles the caller waits for."""
        size = self.cache.config.line_size
        dirty = [(addr // size, self.data.get(addr // size))
                 for addr in self.cache.flush()]
        cycles = self._spill(dirty) if dirty else 0
        self.data.clear()
        below = self.below.flush(self.port)
        return cycles + (0 if self.write_buffer else below)


class TwoLevelSystem:
    """CPU -> L1 -> L2 -> external memory, with the EDU at either boundary.

    ``write_buffer`` posts the L2's spills to memory; the L1's writebacks
    into the L2 always land on the critical path.
    """

    def __init__(
        self,
        engine: Optional[BusEncryptionEngine] = None,
        l1_config: CacheConfig = CacheConfig(size=4096, line_size=32,
                                             associativity=2, hit_latency=1),
        l2_config: CacheConfig = CacheConfig(size=32 * 1024, line_size=32,
                                             associativity=4, hit_latency=8),
        mem_config: MemoryConfig = MemoryConfig(),
        edu_level: str = EDU_L2_MEMORY,
        write_buffer: bool = True,
        issue_cycles: int = 1,
        sink: Optional[EventSink] = None,
    ):
        if l1_config.line_size != l2_config.line_size:
            raise ValueError("L1 and L2 must share a line size in this model")
        for level, config in (("L1", l1_config), ("L2", l2_config)):
            if (config.write_policy is not WritePolicy.WRITE_BACK
                    or not config.write_allocate):
                raise ValueError(
                    f"{level} must be write-back with write-allocate: the "
                    f"hierarchy moves whole lines between levels")
        if edu_level not in (EDU_L2_MEMORY, EDU_L1_L2):
            raise ValueError(f"unknown edu_level {edu_level!r}")
        if edu_level == EDU_L1_L2 and engine is not None:
            # The L2 port holds lines at their own addresses: an engine
            # whose fill reads anything else (pages, chains, tags) has
            # no model there.
            base, cls = BusEncryptionEngine, type(engine)
            if (cls.fill_lines is not base.fill_lines
                    or cls._verify_fill is not base._verify_fill):
                raise ValueError(
                    f"engine {engine.name!r} fills or verifies beyond a "
                    f"per-line decrypt, which {EDU_L1_L2} does not model")
        self.engine = engine if engine is not None else NullEngine()
        at_l1 = edu_level == EDU_L1_L2
        self._l1 = l1 = SecureSystem(
            engine=self.engine if at_l1 else NullEngine(),
            cache_config=l1_config, mem_config=mem_config,
            write_buffer=False, issue_cycles=issue_cycles, sink=sink)
        self.engine.attach_sink(l1.sink)
        self.sink = l1.sink
        self.memory = l1.memory
        self.bus = l1.bus
        self.l1 = l1.cache
        self.l2 = Cache(l2_config)
        self.edu_level = edu_level
        self.line_size = l1_config.line_size
        # The port holds its L1 system weakly, as SecureSystem's own does.
        l1_ref = weakref.ref(l1)
        l1.port = self._l2 = _L2Port(
            self.l2, NullEngine() if at_l1 else self.engine, l1.port,
            write_buffer, l1.sink, lambda: l1_ref().cycles)
        # Plaintext of L1-resident lines, and the L2's line content.
        self._l1_data = l1._line_data
        self._l2_data = self._l2.data

    @property
    def cycles(self) -> int:
        return self._l1.cycles

    # -- installation -----------------------------------------------------

    def install_image(self, base_addr: int, plaintext: bytes) -> None:
        self.engine.install_image(
            self.memory, base_addr, plaintext, line_size=self.line_size)

    def read_plaintext(self, addr: int, nbytes: int) -> bytes:
        """Decrypt external memory through the engine (verification helper)."""
        return self.engine.read_plain(self.memory, addr, nbytes,
                                      self.line_size)

    # -- simulation -------------------------------------------------------

    def step(self, access: Access, data: Optional[bytes] = None) -> None:
        """One access: a one-access :meth:`run`; a store's explicit
        ``data`` then replaces the trace filler in the resident line."""
        execute(self._l1, (access,))
        if data is not None and access.is_write:
            offset = access.addr % self.line_size
            end = min(offset + len(data), self.line_size)
            self._l1_data[access.addr // self.line_size][offset:end] = \
                data[: end - offset]

    def run(self, trace: Trace, label: str = "") -> SimReport:
        execute(self._l1, trace)
        return self.report(label or f"{self.engine.name}@{self.edu_level}")

    def flush(self) -> None:
        """Drain the L1 into the L2, then the L2 and the engine's own
        buffer to memory."""
        self._l1.flush()
        self._l1.cycles += self._l2.flush()

    def report(self, label: str) -> SimReport:
        """The L1 run's report, with the engine's stats and both levels'
        writebacks."""
        report = self._l1.report(label, engine=self.engine)
        report.writebacks += self.l2.writebacks
        return report

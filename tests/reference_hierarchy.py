"""Scalar reference model of the two-level hierarchy.

The oracle for :class:`repro.sim.hierarchy.TwoLevelSystem`, which runs
its L1 through the batched executor behind a line-granular L2 port.  This
model walks each access through both levels by hand, one at a time, with
``OrderedDict`` LRU sets and no deferred fills.  An engine at the L1-L2
boundary fills and writes back through its own ``fill_line`` and
``write_line`` over the L2 (so its extra cycles count in ``engine.stats``
and reach the sink as stalls, and the L2's access cycles are the fill's
``mem_cycles``), as an engine at L2-memory does over memory.

Events: the L1 reports access/hit/miss/eviction/writeback/fill, the L2
hit/miss/eviction/writeback.  The executor may group and re-stamp them;
per-kind totals, the report, the bus stream and memory must match.
"""

from collections import OrderedDict
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.core.engine import BusEncryptionEngine, MemoryPort, NullEngine
from repro.obs import TraceEvent
from repro.sim.bus import Bus
from repro.sim.cache import CacheConfig
from repro.sim.hierarchy import EDU_L1_L2
from repro.sim.memory import MainMemory, MemoryConfig
from repro.sim.system import SimReport, store_payload
from repro.traces.trace import Access, AccessKind


class _Level:
    """One write-back, write-allocate LRU cache level: line -> dirty."""

    def __init__(self, config: CacheConfig, emit):
        self.config = config
        self.sets = [OrderedDict() for _ in range(config.num_sets)]
        self.emit = emit
        self.hits = self.misses = self.evictions = self.writebacks = 0

    def access(self, addr: int, is_write: bool
               ) -> Tuple[bool, Optional[int], bool]:
        """Touch the line holding ``addr``; returns (hit, victim line or
        None, victim dirty)."""
        line_size = self.config.line_size
        line = addr // line_size
        lines = self.sets[line % self.config.num_sets]
        if line in lines:
            lines.move_to_end(line)
            self.hits += 1
            self.emit("hit", addr)
            if is_write:
                lines[line] = True
            return True, None, False
        self.misses += 1
        self.emit("miss", addr)
        victim, dirty = None, False
        if len(lines) >= self.config.associativity:
            victim, dirty = lines.popitem(last=False)
            self.evictions += 1
            self.emit("eviction", victim * line_size)
            if dirty:
                self.writebacks += 1
                self.emit("writeback", victim * line_size)
        lines[line] = is_write
        return False, victim, dirty

    def flush(self) -> List[int]:
        """Empty the level; returns the dirty lines' addresses, set by
        set, LRU first."""
        line_size = self.config.line_size
        dirty = [line * line_size for lines in self.sets
                 for line, is_dirty in lines.items() if is_dirty]
        for lines in self.sets:
            lines.clear()
        self.writebacks += len(dirty)
        return dirty


class ReferenceTwoLevel:
    """CPU -> L1 -> L2 -> memory, one access at a time."""

    def __init__(self, engine: Optional[BusEncryptionEngine],
                 l1_config: CacheConfig, l2_config: CacheConfig,
                 mem_config: MemoryConfig, edu_level: str,
                 write_buffer: bool = True, issue_cycles: int = 1,
                 sink=None):
        self.engine = engine if engine is not None else NullEngine()
        self.engine.attach_sink(sink)
        self.sink = sink
        self.memory = MainMemory(mem_config, sink=sink)
        self.bus = Bus(sink=sink)
        self.port = MemoryPort(self.memory, self.bus,
                               clock=lambda: self.cycles)
        self.l1 = _Level(l1_config, self._emit)
        self.l2 = _Level(l2_config, self._emit)
        self.at_l1 = edu_level == EDU_L1_L2
        self.edu_level = edu_level
        self.write_buffer = write_buffer
        self.issue_cycles = issue_cycles
        self.line_size = l1_config.line_size
        self.cycles = 0
        self.l1_data: Dict[int, bytearray] = {}
        self.l2_data: Dict[int, bytes] = {}
        self.counts = {kind: 0 for kind in AccessKind}
        #: What an engine at the L1-L2 boundary reads and writes: the L2,
        #: one line at a time (a group call is a lazy loop of one-line
        #: calls).
        self.l2_port = SimpleNamespace(
            read=self._l2_read, write=self._l2_write,
            read_lines=lambda addrs, nbytes: (
                (addr,) + self._l2_read(addr, nbytes) for addr in addrs),
            write_lines=lambda items: (
                (addr, data, self._l2_write(addr, data))
                for addr, data in items))

    def _emit(self, kind: str, addr: int, size: int = 0, **kw) -> None:
        if self.sink is not None:
            self.sink.emit(TraceEvent(kind=kind, addr=addr,
                                      size=size or self.line_size,
                                      cycle=self.cycles, **kw))

    def install_image(self, base_addr: int, plaintext: bytes) -> None:
        self.engine.install_image(self.memory, base_addr, plaintext,
                                  line_size=self.line_size)

    # -- the L2 -------------------------------------------------------------

    def _l2_writeback(self, addr: int) -> int:
        data = self.l2_data.pop(addr // self.line_size, None)
        if data is None:
            data = bytes(self.line_size)
        if self.at_l1:
            cycles = self.port.write(addr, data)
        else:
            cycles = self.engine.write_line(self.port, addr, data)
        return 0 if self.write_buffer else cycles

    def _l2_access(self, addr: int, is_write: bool) -> Tuple[bool, int]:
        """Look the line up in the L2, evicting as needed; returns (hit,
        cycles)."""
        hit, victim, dirty = self.l2.access(addr, is_write)
        cycles = self.l2.config.hit_latency
        if victim is not None:
            if dirty:
                cycles += self._l2_writeback(victim * self.line_size)
            else:
                self.l2_data.pop(victim, None)
        return hit, cycles

    def _l2_read(self, addr: int, nbytes: int) -> Tuple[bytes, int]:
        """An L1 fill's fetch from the L2; returns (content, cycles)."""
        line = addr // self.line_size
        hit, cycles = self._l2_access(addr, is_write=False)
        if hit:
            return self.l2_data.get(line, bytes(self.line_size)), cycles
        if self.at_l1:
            content, fill_cycles = self.port.read(addr, self.line_size)
        else:
            content, fill_cycles = self.engine.fill_line(
                self.port, addr, self.line_size)
        self.l2_data[line] = content = bytes(content)
        return content, cycles + fill_cycles

    def _l2_write(self, addr: int, content: bytes) -> int:
        """An L1 writeback into the L2 (a whole line, no fill)."""
        _, cycles = self._l2_access(addr, is_write=True)
        self.l2_data[addr // self.line_size] = bytes(content)
        return cycles

    # -- L1 <-> L2 ----------------------------------------------------------

    def _fetch_into_l1(self, addr: int) -> bytes:
        """An L1 fill; returns the L1's plaintext.  At L1-L2 the engine's
        own fill path runs over the L2."""
        if self.at_l1:
            content, cycles = self.engine.fill_line(self.l2_port, addr,
                                                    self.line_size)
        else:
            content, cycles = self._l2_read(addr, self.line_size)
        self.cycles += cycles
        return content

    def _l1_writeback(self, addr: int) -> None:
        """A dirty L1 victim goes into the L2 (always on the critical
        path)."""
        plaintext = bytes(self.l1_data.pop(addr // self.line_size, None)
                          or bytes(self.line_size))
        if self.at_l1:
            self.cycles += self.engine.write_line(self.l2_port, addr,
                                                  plaintext)
        else:
            self.cycles += self._l2_write(addr, plaintext)

    # -- main loop ----------------------------------------------------------

    def step(self, access: Access) -> None:
        self.cycles += self.issue_cycles
        self.counts[access.kind] += 1
        self._emit("access", access.addr, access.size,
                   detail=access.kind.name.lower())
        line_size = self.line_size
        line = access.addr // line_size
        hit, victim, dirty = self.l1.access(access.addr, access.is_write)
        self.cycles += self.l1.config.hit_latency
        if victim is not None:
            if dirty:
                self._l1_writeback(victim * line_size)
            else:
                self.l1_data.pop(victim, None)
        if not hit:
            self.l1_data[line] = bytearray(
                self._fetch_into_l1(line * line_size))
            self._emit("fill", line * line_size)
        if access.is_write:
            payload = store_payload(access.addr, access.size)
            offset = access.addr - line * line_size
            end = min(offset + len(payload), line_size)
            self.l1_data[line][offset:end] = payload[: end - offset]

    def run(self, trace) -> SimReport:
        for access in trace:
            self.step(access)
        return self.report()

    def flush(self) -> None:
        for addr in self.l1.flush():
            self._l1_writeback(addr)
        self.l1_data.clear()
        for addr in self.l2.flush():
            self.cycles += self._l2_writeback(addr)
        self.l2_data.clear()
        cycles = self.engine.flush(self.port)
        if not self.write_buffer:
            self.cycles += cycles

    def report(self, label: str = "") -> SimReport:
        stats = self.engine.stats
        return SimReport(
            label=label or f"{self.engine.name}@{self.edu_level}",
            cycles=self.cycles,
            accesses=sum(self.counts.values()),
            fetches=self.counts[AccessKind.FETCH],
            loads=self.counts[AccessKind.LOAD],
            stores=self.counts[AccessKind.STORE],
            cache_hits=self.l1.hits,
            cache_misses=self.l1.misses,
            writebacks=self.l1.writebacks + self.l2.writebacks,
            rmw_operations=stats.rmw_operations,
            bus_transactions=self.bus.transactions,
            bus_bytes=self.bus.bytes_transferred,
            mem_reads=self.memory.reads,
            mem_writes=self.memory.writes,
            engine_extra_read_cycles=stats.extra_read_cycles,
            engine_extra_write_cycles=stats.extra_write_cycles,
            lines_encrypted=stats.lines_encrypted,
            lines_decrypted=stats.lines_decrypted,
            bytes_enciphered=self.line_size * (
                stats.lines_encrypted + stats.lines_decrypted),
        )

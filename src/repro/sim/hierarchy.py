"""Two-level cache hierarchy with a movable encryption boundary.

The survey's placement discussion (Figure 7) has exactly two points because
its systems have one cache.  With an L2 the question generalizes: the EDU
can sit between L2 and memory (only off-chip traffic pays crypto, both
caches hold plaintext) or between L1 and L2 (the large L2 holds ciphertext
— tolerating on-chip probing of the L2 arrays, the class-III concern §4
raises — at the price of crypto on every L1 miss).

:class:`TwoLevelSystem` implements both, functionally: with the EDU at the
L2-memory boundary both caches cache plaintext; with the EDU at the L1-L2
boundary the L2 is just a staging array for ciphertext lines and every L1
fill pays the engine.  That boundary deciphers one line in place, so it
rejects, at construction, an engine whose fill does more (its own
``fill_lines`` or a ``_verify_fill`` check).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.engine import BusEncryptionEngine, MemoryPort, NullEngine
from ..obs import EventSink, current_sink
from ..traces.trace import Access, AccessKind, Trace
from .bus import Bus
from .cache import Cache, CacheConfig
from .memory import MainMemory, MemoryConfig
from .system import SimReport, store_payload

__all__ = ["TwoLevelSystem", "EDU_L2_MEMORY", "EDU_L1_L2"]

EDU_L2_MEMORY = "l2-memory"
EDU_L1_L2 = "l1-l2"


class TwoLevelSystem:
    """CPU -> L1 -> L2 -> external memory, with the EDU at either boundary."""

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
        if edu_level not in (EDU_L2_MEMORY, EDU_L1_L2):
            raise ValueError(f"unknown edu_level {edu_level!r}")
        if edu_level == EDU_L1_L2 and engine is not None:
            # The L1-L2 boundary applies decrypt_line/encrypt_line in
            # place: an engine with its own fill path or fill check
            # would silently lose it there.
            base, cls = BusEncryptionEngine, type(engine)
            if (cls.fill_lines is not base.fill_lines
                    or cls._verify_fill is not base._verify_fill):
                raise ValueError(
                    f"engine {engine.name!r} fills or verifies beyond a "
                    f"per-line decrypt, which {EDU_L1_L2} does not model")
        if sink is None:
            sink = current_sink()
        self.engine = engine if engine is not None else NullEngine()
        self.engine.attach_sink(sink)
        self.sink = sink
        self.l1 = Cache(l1_config, sink=sink)
        self.l1.clock = lambda: self.cycles
        self.l2 = Cache(l2_config, sink=sink)
        self.l2.clock = lambda: self.cycles
        self.memory = MainMemory(mem_config, sink=sink)
        self.bus = Bus(sink=sink)
        self.edu_level = edu_level
        self.write_buffer = write_buffer
        self.issue_cycles = issue_cycles
        self.cycles = 0
        self.port = MemoryPort(self.memory, self.bus, clock=lambda: self.cycles)
        self.line_size = l1_config.line_size
        # Plaintext of L1-resident lines.
        self._l1_data: Dict[int, bytearray] = {}
        # Content of L2-resident lines: plaintext when the EDU is at the
        # memory boundary, ciphertext when the EDU is at the L1-L2 boundary.
        self._l2_data: Dict[int, bytes] = {}
        self._counts = {kind: 0 for kind in AccessKind}

    # -- installation -----------------------------------------------------

    def install_image(self, base_addr: int, plaintext: bytes) -> None:
        self.engine.install_image(
            self.memory, base_addr, plaintext, line_size=self.line_size
        )

    def read_plaintext(self, addr: int, nbytes: int) -> bytes:
        """Decrypt external memory through the engine (verification helper)."""
        return self.engine.read_plain(self.memory, addr, nbytes,
                                      self.line_size)

    # -- L2 <-> memory ------------------------------------------------------

    def _l2_writeback(self, addr: int) -> None:
        """Dirty L2 victim goes to external memory."""
        line = addr // self.line_size
        data = self._l2_data.pop(line, None)
        if data is None:
            data = bytes(self.line_size)
        if self.edu_level == EDU_L2_MEMORY:
            cycles = self.engine.write_line(self.port, addr, bytes(data))
        else:
            # L2 already holds ciphertext: plain store.
            cycles = self.port.write(addr, bytes(data))
        if not self.write_buffer:
            self.cycles += cycles

    def _l2_fill(self, addr: int) -> bytes:
        """Fetch a line into L2 from memory; returns the L2's view of it."""
        if self.edu_level == EDU_L2_MEMORY:
            data, cycles = self.engine.fill_line(self.port, addr,
                                                 self.line_size)
        else:
            data, cycles = self.port.read(addr, self.line_size)
        self.cycles += cycles
        return bytes(data)

    # -- L1 <-> L2 -------------------------------------------------------------

    def _l1_view(self, addr: int, l2_content: bytes) -> bytes:
        """What the L1 stores: decrypt at the L1 boundary if the EDU is
        there."""
        if self.edu_level == EDU_L1_L2:
            self.cycles += self.engine.read_extra_cycles(
                addr, self.line_size, 0
            )
            self.engine.stats.lines_decrypted += 1
            self.engine._emit("decipher", addr, self.line_size)
            return (
                self.engine.decrypt_line(addr, l2_content)
                if self.engine.functional else l2_content
            )
        return l2_content

    def _l1_writeback(self, addr: int) -> None:
        """Dirty L1 victim goes into L2."""
        line = addr // self.line_size
        plaintext = self._l1_data.pop(line, None)
        if plaintext is None:
            plaintext = bytearray(self.line_size)
        if self.edu_level == EDU_L1_L2:
            self.cycles += self.engine.write_extra_cycles(addr, self.line_size)
            self.engine.stats.lines_encrypted += 1
            self.engine._emit("encipher", addr, self.line_size)
            content = (
                self.engine.encrypt_line(addr, bytes(plaintext))
                if self.engine.functional else bytes(plaintext)
            )
        else:
            content = bytes(plaintext)
        result = self.l2.access(addr, is_write=True)
        self.cycles += self.l2.config.hit_latency
        if result.evicted_line is not None:
            if result.writeback_addr is not None:
                self._l2_writeback(result.writeback_addr)
            else:
                self._l2_data.pop(result.evicted_line, None)
        if result.fill_needed:
            # Write-allocate into L2 without the data (whole line replaced).
            pass
        self._l2_data[line] = content

    def _fetch_into_l1(self, addr: int) -> bytes:
        """Service an L1 fill through the L2."""
        line = addr // self.line_size
        result = self.l2.access(addr, is_write=False)
        self.cycles += self.l2.config.hit_latency
        if result.hit:
            content = self._l2_data.get(line)
            if content is None:
                content = bytes(self.line_size)
        else:
            if result.evicted_line is not None:
                if result.writeback_addr is not None:
                    self._l2_writeback(result.writeback_addr)
                else:
                    self._l2_data.pop(result.evicted_line, None)
            content = self._l2_fill(addr)
            self._l2_data[line] = content
        return self._l1_view(addr, content)

    # -- main loop -----------------------------------------------------------------

    def step(self, access: Access, data: Optional[bytes] = None) -> None:
        self.cycles += self.issue_cycles
        self._counts[access.kind] += 1
        if self.sink is not None:
            self.sink.note("access", addr=access.addr, size=access.size,
                           cycle=self.cycles,
                           detail=access.kind.name.lower())
        line_size = self.line_size

        result = self.l1.access(access.addr, access.is_write)
        self.cycles += self.l1.config.hit_latency

        if result.evicted_line is not None:
            if result.writeback_addr is not None:
                self._l1_writeback(result.writeback_addr)
            else:
                self._l1_data.pop(result.evicted_line, None)

        if result.fill_needed:
            plaintext = self._fetch_into_l1(result.line_addr * line_size)
            self._l1_data[result.line_addr] = bytearray(plaintext)

        if access.is_write:
            payload = data if data is not None else store_payload(
                access.addr, access.size)
            if result.line_addr in self._l1_data:
                line = self._l1_data[result.line_addr]
                offset = access.addr - result.line_addr * line_size
                end = min(offset + len(payload), line_size)
                line[offset:end] = payload[: end - offset]

    def run(self, trace: Trace, label: str = "") -> SimReport:
        for access in trace:
            self.step(access)
        return self.report(label or f"{self.engine.name}@{self.edu_level}")

    def flush(self) -> None:
        """Drain both cache levels, then the engine's own buffer, to
        memory."""
        for addr in self.l1.flush():
            self._l1_writeback(addr)
        self._l1_data.clear()
        for addr in self.l2.flush():
            self._l2_writeback(addr)
        self._l2_data.clear()
        cycles = self.engine.flush(self.port)
        if not self.write_buffer:
            self.cycles += cycles

    def report(self, label: str) -> SimReport:
        stats = self.engine.stats
        return SimReport(
            label=label,
            cycles=self.cycles,
            accesses=sum(self._counts.values()),
            fetches=self._counts[AccessKind.FETCH],
            loads=self._counts[AccessKind.LOAD],
            stores=self._counts[AccessKind.STORE],
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
                stats.lines_encrypted + stats.lines_decrypted
            ),
        )

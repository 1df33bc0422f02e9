"""Full-system composition: CPU trace -> cache -> EDU -> bus -> memory.

This is the testbench every experiment runs on.  The cache holds plaintext
(survey Figure 2c: "data stored in the cache memory will be in clear form"),
external memory holds whatever the engine produced, and the bus between them
is observable.  The simulator is trace driven and cycle approximate: each
access contributes issue + hit latency, misses add the engine-serviced fill
path, and stores follow the configured write policy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.engine import BusEncryptionEngine, MemoryPort, NullEngine
from ..obs import EventSink, current_sink
from ..traces.trace import Access, AccessKind, Trace
from .bus import Bus
from .cache import Cache, CacheConfig
from .memory import MainMemory, MemoryConfig

#: 512-byte repeating ramp backing the deterministic store filler —
#: ``bytes((addr + i) & 0xFF for i in range(size))`` is a slice of it
#: whenever ``size <= 256`` (every generated access), and a slice of a
#: repeat of it for the longer merged store spans of long cache lines.
_STORE_PATTERN = bytes(range(256)) * 2


def store_payload(addr: int, size: int) -> bytes:
    """The deterministic bytes a trace store writes (traces carry no data)."""
    lo = addr & 0xFF
    pattern = (_STORE_PATTERN if size <= 256
               else _STORE_PATTERN * ((lo + size) // 512 + 1))
    return pattern[lo: lo + size]

__all__ = ["SimReport", "SecureSystem", "run_trace", "require_replayable"]


@dataclass
class SimReport:
    """Everything one simulation run produced."""

    label: str
    cycles: int
    accesses: int
    fetches: int
    loads: int
    stores: int
    cache_hits: int
    cache_misses: int
    writebacks: int
    rmw_operations: int
    bus_transactions: int
    bus_bytes: int
    mem_reads: int
    mem_writes: int
    engine_extra_read_cycles: int
    engine_extra_write_cycles: int
    lines_encrypted: int = 0
    lines_decrypted: int = 0
    bytes_enciphered: int = 0   # bytes through the engine, both directions

    @property
    def miss_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_misses / total if total else 0.0

    @property
    def cpi(self) -> float:
        """Cycles per access — the normalized cost metric."""
        return self.cycles / self.accesses if self.accesses else 0.0

    def overhead_vs(self, baseline: "SimReport") -> float:
        """Fractional slowdown relative to ``baseline`` (0.25 = +25%)."""
        if baseline.cycles == 0:
            return 0.0
        return self.cycles / baseline.cycles - 1.0

    def to_metrics(self) -> Dict[str, object]:
        """The report as a flat, JSON-serializable metrics dict."""
        return {
            "label": self.label,
            "cycles": self.cycles,
            "accesses": self.accesses,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(1.0 - self.miss_rate, 6),
            "writebacks": self.writebacks,
            "rmw_operations": self.rmw_operations,
            "bus_transactions": self.bus_transactions,
            "bus_bytes": self.bus_bytes,
            "mem_reads": self.mem_reads,
            "mem_writes": self.mem_writes,
            "lines_encrypted": self.lines_encrypted,
            "lines_decrypted": self.lines_decrypted,
            "bytes_enciphered": self.bytes_enciphered,
        }


class SecureSystem:
    """A SoC with an optional bus-encryption engine.

    Parameters
    ----------
    engine:
        The EDU under test; ``None`` builds the plaintext baseline.
    cache_config, mem_config:
        Geometry/timing of the cache and the external memory.
    write_buffer:
        When True (default), writebacks and through-writes are posted: they
        occupy the bus but do not stall the CPU.  When False every write's
        full latency lands on the critical path (the pessimistic model the
        survey's five-step write discussion assumes).
    issue_cycles:
        Cycles charged per CPU access before the memory system responds.
    sink:
        Optional :class:`repro.obs.EventSink` receiving a
        :class:`repro.obs.TraceEvent` for every access, cache outcome,
        fill, bus transfer, memory operation and cipher operation
        (profiling without code changes).  ``None`` picks up the ambient
        sink installed by :func:`repro.obs.scope`, if any.
    """

    def __init__(
        self,
        engine: Optional[BusEncryptionEngine] = None,
        cache_config: CacheConfig = CacheConfig(),
        mem_config: MemoryConfig = MemoryConfig(),
        write_buffer: bool = True,
        issue_cycles: int = 1,
        sink: Optional[EventSink] = None,
    ):
        if sink is None:
            sink = current_sink()
        self.engine = engine if engine is not None else NullEngine()
        self.engine.attach_sink(sink)
        self.sink = sink
        self.cache = Cache(cache_config)
        self.memory = MainMemory(mem_config, sink=sink)
        self.bus = Bus(sink=sink)
        self.cycles = 0
        self.write_buffer = write_buffer
        self.issue_cycles = issue_cycles
        # The port reads the clock through a weak reference: a closure over
        # self would make a cycle that keeps a finished run's memory alive
        # until the cyclic GC runs.
        system = weakref.ref(self)
        self.port = MemoryPort(self.memory, self.bus,
                               clock=lambda: system().cycles)
        # Plaintext contents of resident lines, keyed by line address.
        self._line_data: Dict[int, bytearray] = {}
        self._counts = {kind: 0 for kind in AccessKind}

    # -- content management ---------------------------------------------

    def install_image(self, base_addr: int, plaintext: bytes) -> None:
        """Offline-encrypt an image into external memory (no cycles charged)."""
        self.engine.install_image(
            self.memory, base_addr, plaintext, line_size=self.cache.config.line_size
        )

    def read_plaintext(self, addr: int, nbytes: int) -> bytes:
        """Decrypt external memory through the engine (verification helper)."""
        return self.engine.read_plain(self.memory, addr, nbytes,
                                      self.cache.config.line_size)

    # -- simulation ---------------------------------------------------------

    def step(self, access: Access) -> None:
        """Simulate one access: a one-access :meth:`run`."""
        from .fastpath import execute
        execute(self, (access,))

    def run(self, trace, label: str = "") -> SimReport:
        """Replay ``trace`` and return the report.

        Executes through the batched executor (:mod:`repro.sim.fastpath`).
        Accepts a plain trace, a :class:`~repro.sim.fastpath.CompiledTrace`
        (compile once, replay against many systems), or a
        :class:`~repro.traces.stream.TraceStream` chunk stream — the
        streaming form runs a 10^8-access trace in bounded memory with a
        byte-identical report.
        """
        from .fastpath import execute
        execute(self, trace)
        return self.report(label or self.engine.name)

    def flush(self) -> None:
        """Write back all dirty lines as one spill group, in the cache's
        flush order, then the engine's own buffer (end-of-run barrier)."""
        line_size = self.cache.config.line_size
        items = []
        for addr in self.cache.flush():
            data = self._line_data.get(addr // line_size)
            items.append(
                (addr, bytes(data) if data is not None else bytes(line_size)))
        if items:
            cycles = sum(self.engine.spill_lines(self.port, items))
            if not self.write_buffer:
                self.cycles += cycles
        self._line_data.clear()
        cycles = self.engine.flush(self.port)
        if not self.write_buffer:
            self.cycles += cycles

    def report(self, label: str,
               engine: Optional[BusEncryptionEngine] = None) -> SimReport:
        """The run so far; the engine stats are ``engine``'s (default this
        system's own — a hierarchy passes the EDU below its L1)."""
        stats = (engine or self.engine).stats
        line_size = self.cache.config.line_size
        return SimReport(
            label=label,
            cycles=self.cycles,
            accesses=sum(self._counts.values()),
            fetches=self._counts[AccessKind.FETCH],
            loads=self._counts[AccessKind.LOAD],
            stores=self._counts[AccessKind.STORE],
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            writebacks=self.cache.writebacks,
            rmw_operations=stats.rmw_operations,
            bus_transactions=self.bus.transactions,
            bus_bytes=self.bus.bytes_transferred,
            mem_reads=self.memory.reads,
            mem_writes=self.memory.writes,
            engine_extra_read_cycles=stats.extra_read_cycles,
            engine_extra_write_cycles=stats.extra_write_cycles,
            lines_encrypted=stats.lines_encrypted,
            lines_decrypted=stats.lines_decrypted,
            bytes_enciphered=line_size * (
                stats.lines_encrypted + stats.lines_decrypted
            ),
        )


def run_trace(
    trace: Trace,
    engine: Optional[BusEncryptionEngine] = None,
    image: Optional[bytes] = None,
    image_base: int = 0,
    label: str = "",
    **system_kwargs,
) -> SimReport:
    """Convenience one-shot: build a system, install an image, run a trace."""
    system = SecureSystem(engine=engine, **system_kwargs)
    if image is not None:
        system.install_image(image_base, image)
    return system.run(trace, label=label)


def require_replayable(trace, caller: str) -> None:
    """Reject a one-shot trace stream before ``caller`` replays it.

    Pricing runs the trace once per engine and once for the baseline.
    A one-shot :class:`~repro.traces.stream.TraceStream` (or its compiled
    form) raises ``TypeError`` here, up front, instead of failing or
    feeding the second run nothing after the first has been paid for.
    """
    if not getattr(trace, "replayable", True):
        raise TypeError(
            f"{caller} replays the trace; build the stream from a "
            "factory (e.g. repro.traces.stream_workload) so it can replay"
        )

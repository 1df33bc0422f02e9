"""Encryption/Decryption Unit (EDU) framework.

Every hardware engine the survey describes is, abstractly, a box between
two memory levels that

* keeps a secret key on-chip (Best's rule: "cipher unit and secret key
  remain on-chip"),
* transforms lines as they cross the chip boundary,
* and adds cycles to the miss path while doing so.

:class:`BusEncryptionEngine` is that box.  The system simulator delegates
every external transfer to the engine, which performs the functional
transformation (real bytes through real ciphers) and accounts the added
latency.  Concrete engines in this package implement each surveyed design.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple,
)

from ..crypto.kernels import tdes_kernel
from ..crypto.modes import CBC, xor_bytes
from ..obs import EventSink, no_events
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit

__all__ = ["Placement", "EngineStats", "MemoryPort", "BusEncryptionEngine",
           "NullEngine", "BlockModeEngine", "TweakedECBEngine",
           "ChainedTDESEngine", "WrappedEngine", "LineAuthEngine",
           "TamperDetected", "TamperVerdicts"]


def _tally(sink: EventSink, kind: str, count: int, nbytes: int) -> None:
    """Hand a group's ``count`` events of one kind to a count-only sink."""
    if count:
        sink.emit_bulk(kind, count, nbytes, no_events)


class TamperDetected(Exception):
    """A fetched line/region failed its integrity verification.

    The canonical active-attack outcome: every engine's verdict path
    raises this (or a subclass — :class:`repro.core.merkle.
    MerkleTamperDetected`, :class:`repro.core.general_instrument.
    AuthenticationError`), so campaigns catch one exception type no matter
    which integrity mechanism fired.
    """


@dataclass
class TamperVerdicts:
    """Outcome counters of an engine's integrity verdict path.

    ``checks`` counts every verification the engine performed (tag
    compare, Merkle path walk, region hash); ``tampers`` the subset that
    failed.  Maintained by :meth:`BusEncryptionEngine.verify_line`, the
    single chokepoint all engines report through.
    """

    checks: int = 0
    tampers: int = 0

    def reset(self) -> None:
        self.checks = 0
        self.tampers = 0


class Placement(Enum):
    """Where the EDU sits (survey Figure 7)."""

    CACHE_MEMORY = "cache-memory"   # between cache and memory controller (7a)
    CPU_CACHE = "cpu-cache"         # between CPU and cache (7b)


@dataclass
class EngineStats:
    """Operation counters every engine maintains."""

    lines_decrypted: int = 0
    lines_encrypted: int = 0
    blocks_processed: int = 0
    rmw_operations: int = 0
    pad_hits: int = 0
    pad_misses: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    extra_read_cycles: int = 0
    extra_write_cycles: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


class MemoryPort:
    """The engine's window onto the external world.

    Bundles the functional memory, the observable bus and the timing
    configuration; every engine transfer goes through here, one memory
    access and one bus transfer per line, so that the bus events carry
    exactly the bytes that cross the chip boundary.

    A group of lines is one :meth:`read_lines` or :meth:`write_lines`
    call, lazy, one line per ``next``: each line is one
    :meth:`MainMemory.read`/``write`` and one :meth:`Bus.transfer`, so it
    crosses every interposer, and reaches a sink that keeps events,
    before the caller's work on it and before the next line moves.  The
    group is stamped with one cycle, its timing is priced once per line
    size, and each layer hands a count-only sink one tally for it
    (``tally``).  :meth:`read` and :meth:`write` are one-line groups.
    """

    def __init__(self, memory, bus, clock=None):
        self.memory = memory
        self.bus = bus
        self._clock = clock  # callable returning current cycle, for events

    def _cycle(self) -> int:
        return self._clock() if self._clock else 0

    def read_lines(self, addrs: Sequence[int], nbytes: int
                   ) -> Iterator[Tuple[int, bytes, int]]:
        """Read ``nbytes`` at each of ``addrs``, in order; yields each
        line's (addr, data, cycles) once it has crossed the bus.

        The engine receives the bytes :meth:`MainMemory.read` returned, so
        a memory interposer tampers with exactly what the chip decrypts.
        A caller that stops early closes the generator, which tallies the
        lines read so far; a line outside memory raises when it is
        reached.  The one place a tally and the counters part: an
        interposer that raises leaves its line in the memory's counters
        (counted before the interposers run, as a one-line read did) but
        out of the count-only ``mem-read`` tally.
        """
        memory, bus = self.memory, self.bus
        read, transfer = memory.read, bus.transfer
        cycles = memory.config.read_cycles(nbytes)
        cycle = self._cycle()
        done = 0
        try:
            for addr in addrs:
                data = read(addr, nbytes)
                transfer("read", addr, data, cycle)
                done += 1
                yield addr, data, cycles
        finally:
            if memory.sink is not None:
                memory.tally("read", done, done * nbytes)
            if bus.sink is not None:
                bus.tally("read", done, done * nbytes)

    def write_lines(self, items: Sequence[Tuple[int, bytes]]
                    ) -> Iterator[Tuple[int, bytes, int]]:
        """Write ``(addr, data)`` items, in order; yields each one's
        (addr, data, cycles) once it has crossed the bus."""
        memory, bus = self.memory, self.bus
        write, transfer = memory.write, bus.transfer
        write_cycles = memory.config.write_cycles
        cycle = self._cycle()
        done = moved = 0
        priced = cycles = None
        try:
            for addr, data in items:
                write(addr, data)
                transfer("write", addr, data, cycle)
                size = len(data)
                done += 1
                moved += size
                if size != priced:
                    priced, cycles = size, write_cycles(size)
                yield addr, data, cycles
        finally:
            if memory.sink is not None:
                memory.tally("write", done, moved)
            if bus.sink is not None:
                bus.tally("write", done, moved)

    def read(self, addr: int, nbytes: int) -> Tuple[bytes, int]:
        """Read ``nbytes``; returns (data, cycles): a one-line
        :meth:`read_lines`."""
        [(_, data, cycles)] = self.read_lines((addr,), nbytes)
        return data, cycles

    def write(self, addr: int, data: bytes) -> int:
        """Write ``data``; returns cycles: a one-line :meth:`write_lines`."""
        [(_, _, cycles)] = self.write_lines(((addr, data),))
        return cycles


class BusEncryptionEngine(ABC):
    """Abstract EDU.

    Concrete engines define the functional transform — one of
    ``encrypt_line``/``encrypt_lines`` and one of
    ``decrypt_line``/``decrypt_lines``, each pair's default being the
    other — and the added latency.  ``fill_lines`` / ``spill_lines`` /
    ``write_partial`` are the entry points the system calls; the defaults
    implement the common pattern (fetch ciphertext, decrypt; encrypt,
    store; read-modify-write) and can be overridden for engines with
    richer behaviour (page DMA, region chains, wrappers); a per-line
    integrity verdict is the :meth:`_verify_fill` hook of the base fill.
    """

    name: str = "abstract"
    placement: Placement = Placement.CACHE_MEMORY
    #: Smallest write the base :meth:`write_partial` stores without a
    #: read-modify-write (the cipher granularity); engines that override
    #: ``write_partial`` never read it.
    min_write_bytes: int = 1
    #: Engines that actually transform bytes emit encipher/decipher/stall
    #: events; the plaintext baseline sets this False.
    _cipher_events: bool = True
    #: Fault kinds (see :data:`repro.faults.FAULT_KINDS`) this engine's
    #: verdict path is expected to detect.  Confidentiality-only engines
    #: leave it empty: a forged/relocated/stale line decrypts to garbage
    #: but still reaches the CPU.  Integrity engines override (as a
    #: property where the answer depends on configuration, e.g. the
    #: shield's ``versioned`` flag).
    detects: FrozenSet[str] = frozenset()
    #: True when a line's transform and cycles do not depend on traffic
    #: to other lines (no shared chains, buffers, trees or prediction
    #: windows): the executor may then hold a dirty victim's spill back
    #: behind fills of *other* lines and send it with later spills as one
    #: :meth:`spill_lines` group.  Each line's own reads and writes keep
    #: their order either way.  A wrapper is judged by its own attribute,
    #: not its inner engine's.
    line_independent: bool = False

    def __init__(self, functional: bool = True):
        #: When False, the functional transform is skipped (timing-only runs).
        self.functional = functional
        self.stats = EngineStats()
        #: Integrity verdict counters, fed by :meth:`verify_line`.
        self.verdicts = TamperVerdicts()
        #: Optional :class:`repro.obs.EventSink` receiving one event per
        #: cipher operation (encipher/decipher/rmw/integrity-check/stall).
        self.sink: Optional[EventSink] = None

    def attach_sink(self, sink: Optional[EventSink]) -> None:
        """Attach an event sink to this engine."""
        self.sink = sink

    def _emit(self, kind: str, addr: int = 0, size: int = 0,
              detail: str = "") -> None:
        if self.sink is not None and self._cipher_events:
            self.sink.note(kind, addr=addr, size=size, detail=detail)

    def verify_line(self, addr: int, size: int, ok: bool,
                    detail: str = "") -> bool:
        """Record one integrity verdict; returns ``ok``.

        The uniform chokepoint for every engine's verification outcome:
        counts the check in :attr:`verdicts`, counts the tamper on
        failure, and emits the ``integrity-check`` event (detail ``ok`` or
        ``tamper``).  Callers raise their :class:`TamperDetected` subclass
        on a ``False`` return — raising stays with the engine so messages
        keep their mechanism-specific wording.
        """
        self.verdicts.checks += 1
        if ok:
            self._emit("integrity-check", addr, size, detail or "ok")
            return True
        self.verdicts.tampers += 1
        self._emit("integrity-check", addr, size, "tamper")
        return False

    # -- functional transform --------------------------------------------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        """Transform one line for storage: a one-line :meth:`encrypt_lines`."""
        return self.encrypt_lines([(addr, plaintext)])[0]

    def encrypt_lines(self, items: Sequence[Tuple[int, bytes]]
                      ) -> List[bytes]:
        """Transform ``(addr, line)`` pairs for storage in external memory.

        Returns each line's ciphertext, in order.  Per-line state the
        transform advances (stream versions, AEGIS vectors) advances once
        per item, in item order, so one group call and the same items as
        one-line calls give the same bytes and leave the same state.  No
        port traffic, stats or events: :meth:`install_image`,
        :meth:`spill_lines` and :meth:`write_partial` account those.  Each
        engine defines exactly one of :meth:`encrypt_line` and
        :meth:`encrypt_lines`; the default of either is the other.
        """
        return [self.encrypt_line(addr, line) for addr, line in items]

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt_line`: a one-line :meth:`decrypt_lines`."""
        return self.decrypt_lines([(addr, ciphertext)])[0]

    def decrypt_lines(self, items: Sequence[Tuple[int, bytes]]
                      ) -> List[bytes]:
        """Invert :meth:`encrypt_lines` over ``(addr, ciphertext)`` pairs.

        The fill-time dual of :meth:`encrypt_lines`, called once per
        :meth:`fill_lines` group.  Each engine defines exactly one of
        :meth:`decrypt_line` and :meth:`decrypt_lines`; the default of
        either is the other.
        """
        return [self.decrypt_line(addr, ciphertext)
                for addr, ciphertext in items]

    # -- timing ------------------------------------------------------------

    @abstractmethod
    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        """Cycles added to a line fill beyond the raw memory fetch."""

    @abstractmethod
    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        """Cycles added to a full-line write beyond the raw memory store."""

    def read_extra_cycles_for(self, nbytes: int
                              ) -> Callable[[int, int, int], int]:
        """The group form of :meth:`read_extra_cycles`: the per-line cost,
        called like it, of the ``nbytes``-byte lines of one fill group.

        Resolved once per group.  By default it is
        :meth:`read_extra_cycles` itself, line by line; an engine whose
        line cost depends only on the line's size prices the group once.
        """
        return self.read_extra_cycles

    def write_extra_cycles_for(self, nbytes: int
                               ) -> Callable[[int, int], int]:
        """The group form of :meth:`write_extra_cycles`, as
        :meth:`read_extra_cycles_for` is of the read side."""
        return self.write_extra_cycles

    def per_access_cycles(self) -> int:
        """Cycles added to *every* CPU access (CPU-cache placement only)."""
        return 0

    # -- system entry points ------------------------------------------------

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        """Offline encryption of a program/data image into external memory.

        Mirrors §2.1 step 6: the processor re-ciphers downloaded software
        with its bus key before installing it in external memory.
        """
        if len(plaintext) % line_size != 0:
            plaintext = plaintext + b"\x00" * (line_size - len(plaintext) % line_size)
        ciphertexts = self.encrypt_lines([
            (base_addr + offset, plaintext[offset: offset + line_size])
            for offset in range(0, len(plaintext), line_size)
        ])
        memory.load_image(base_addr, b"".join(ciphertexts))

    # -- fills ---------------------------------------------------------------
    #
    # ``fill_lines`` is the one fill path.  The batched trace executor
    # (repro.sim.fastpath) hands it whole groups of deferred misses;
    # ``fill_line`` is a one-line group.  The group is one port
    # ``read_lines`` call, and the byte transform behind it is
    # ``decrypt_lines``, called once per group, so an engine whose lines
    # carry no state between them batches its cipher work across the group
    # by defining ``decrypt_lines`` alone.  An engine that authenticates
    # each line before it is deciphered (integrity tags, a hash tree)
    # overrides ``_verify_fill`` and keeps this loop.  Engines whose fill
    # reads something other than the line at its address (page buffers,
    # region chains, compressed or scrambled lines) override
    # ``fill_lines`` with their own per-line loop.

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        """Service a group of cache-line fills; one (plaintext, cycles) each.

        The lines come in through one :meth:`MemoryPort.read_lines` call.
        Each, in order and before the next is read, passes
        :meth:`_verify_fill`, pays its read extra
        (:meth:`read_extra_cycles_for`) and reports its ``decipher`` and
        ``stall`` events to a sink that keeps events.  The stats and a
        count-only sink's tallies are updated once per group, for the
        lines done when a line raises.  Then a functional engine
        deciphers the group in one :meth:`decrypt_lines` call; a
        timing-only engine never runs the cipher.
        """
        line_extra = self.read_extra_cycles_for(line_size)
        verify = None if type(self)._verify_fill \
            is BusEncryptionEngine._verify_fill else self._verify_fill
        sink = self.sink if self._cipher_events else None
        keeper = sink if sink is not None and sink.keeps_events else None
        fetched: List[Tuple[bytes, int]] = []
        append = fetched.append
        stalls = stall_cycles = 0
        lines = port.read_lines(addrs, line_size)
        try:
            for addr, ciphertext, mem_cycles in lines:
                extra = 0 if verify is None else verify(
                    port, addr, line_size, ciphertext, mem_cycles)
                extra += line_extra(addr, line_size, mem_cycles)
                append((ciphertext, mem_cycles + extra))
                if extra:
                    stalls += 1
                    stall_cycles += extra
                if keeper is not None:
                    keeper.note("decipher", addr=addr, size=line_size)
                    if extra:
                        keeper.note("stall", addr=addr, size=extra,
                                    detail="read")
        except BaseException:
            lines.close()
            raise
        finally:
            done = len(fetched)
            self.stats.lines_decrypted += done
            self.stats.extra_read_cycles += stall_cycles
            if sink is not None and keeper is None:
                _tally(sink, "decipher", done, done * line_size)
                _tally(sink, "stall", stalls, stall_cycles)
        if not self.functional or not fetched:
            return fetched
        plaintexts = self.decrypt_lines([
            (addr, ciphertext) for addr, (ciphertext, _) in zip(addrs, fetched)
        ])
        return [(plaintext, cycles)
                for plaintext, (_, cycles) in zip(plaintexts, fetched)]

    def fill_line(self, port: MemoryPort, addr: int, line_size: int
                  ) -> Tuple[bytes, int]:
        """Service one cache-line fill: a one-line :meth:`fill_lines`."""
        return self.fill_lines(port, (addr,), line_size)[0]

    def _verify_fill(self, port: MemoryPort, addr: int, line_size: int,
                     ciphertext: bytes, mem_cycles: int) -> int:
        """Authenticate one fetched line before it is deciphered; returns
        the cycles the check adds to the fill, counted as read stall.

        Runs between the line's bus read and its read extra.  A line
        that fails records its verdict through :meth:`verify_line` and
        raises a :class:`TamperDetected`, so no line of its group reaches
        :meth:`decrypt_lines`.  No check by default.
        """
        return 0

    def read_plain(self, memory, addr: int, nbytes: int,
                   line_size: int = 32) -> bytes:
        """Decrypt installed bytes straight from memory (verification).

        Dumps the lines covering ``[addr, addr + nbytes)`` — no bus
        traffic, stats or events — and deciphers them in one
        :meth:`decrypt_lines` call.
        """
        start = addr - addr % line_size
        plain = b"".join(self.decrypt_lines([
            (line, memory.dump(line, line_size))
            for line in range(start, addr + nbytes, line_size)
        ]))
        return plain[addr - start: addr - start + nbytes]

    # -- spills ------------------------------------------------------------
    #
    # ``spill_lines`` is the one write path, the dual of ``fill_lines``:
    # the executor hands it a dirty victim, or a whole queue of them for a
    # ``line_independent`` engine, and the end-of-run barrier hands it
    # every dirty line at once.  ``write_line`` is a one-line group.

    def spill_lines(self, port: MemoryPort,
                    items: Sequence[Tuple[int, bytes]]) -> List[int]:
        """Service a group of full-line writebacks of ``(addr, plaintext)``
        items; returns each one's cycles, in order.

        A functional engine enciphers the group in one
        :meth:`encrypt_lines` call; then each line, in order, pays
        :meth:`write_extra_cycles`, the stats, the ``encipher``/``stall``
        events and its bus write.
        """
        self.stats.lines_encrypted += len(items)
        return self._store(port, items)

    def write_line(self, port: MemoryPort, addr: int, plaintext: bytes) -> int:
        """Service one full-line writeback: a one-line :meth:`spill_lines`."""
        return self.spill_lines(port, ((addr, plaintext),))[0]

    def flush(self, port: MemoryPort) -> int:
        """Write back whatever the engine itself still buffers (the
        end-of-run barrier, after the caches drain); returns cycles.  Only
        an engine with an on-chip write buffer has anything to do."""
        return 0

    def _store(self, port: MemoryPort, items: Sequence[Tuple[int, bytes]]
               ) -> List[int]:
        """Encrypt and store ``(addr, plaintext)`` items, stats and events
        included; returns each one's cycles.  The body of
        :meth:`spill_lines` and of an aligned :meth:`write_partial`.

        The group is one :meth:`MemoryPort.write_lines` call.  Each line,
        in order, pays its write extra (:meth:`write_extra_cycles_for`)
        and reports its ``encipher`` and ``stall`` events to a sink that
        keeps events before it is stored; the stats and a count-only
        sink's tallies are updated once per group.
        """
        stored = [(addr, ciphertext) for (addr, _), ciphertext
                  in zip(items, self.encrypt_lines(items))] \
            if self.functional else items
        sink = self.sink if self._cipher_events else None
        keeper = sink if sink is not None and sink.keeps_events else None
        out: List[int] = []
        done = nbytes = stalls = stall_cycles = 0
        size = line_extra = None
        writes = port.write_lines(stored)
        write, append = writes.__next__, out.append
        try:
            for addr, plaintext in items:
                if len(plaintext) != size:
                    size = len(plaintext)
                    line_extra = self.write_extra_cycles_for(size)
                extra = line_extra(addr, size)
                done += 1
                nbytes += size
                if extra:
                    stalls += 1
                    stall_cycles += extra
                if keeper is not None:
                    keeper.note("encipher", addr=addr, size=size)
                    if extra:
                        keeper.note("stall", addr=addr, size=extra,
                                    detail="write")
                append(extra + write()[2])
            # Run the port's generator to its end, so its layers count
            # the group.
            next(writes, None)
        except BaseException:
            writes.close()
            raise
        finally:
            self.stats.extra_write_cycles += stall_cycles
            if sink is not None and keeper is None:
                _tally(sink, "encipher", done, nbytes)
                _tally(sink, "stall", stalls, stall_cycles)
        return out

    @staticmethod
    def _split_batch(data: bytes, items: Sequence[Tuple[int, bytes]]
                     ) -> List[bytes]:
        """Cut a batch's concatenated output back into one piece per
        ``(addr, line)`` item, each as long as its line."""
        out = []
        pos = 0
        for _, line in items:
            out.append(data[pos: pos + len(line)])
            pos += len(line)
        return out

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        """Service a write narrower than a line (write-through / no-allocate).

        A write aligned to :attr:`min_write_bytes` is enciphered and stored
        directly; a narrower one pays :meth:`_rmw`.
        """
        gran = self.min_write_bytes
        if len(data) >= gran and addr % gran == 0 and len(data) % gran == 0:
            return self._store(port, ((addr, data),))[0]
        return self._rmw(port, addr, data, gran)

    def _rmw(self, port: MemoryPort, addr: int, data: bytes,
             gran: int) -> int:
        """Read-modify-write ``data`` over its enclosing ``gran``-aligned
        region; returns cycles.

        The survey's five-step penalty for a write narrower than the
        cipher granularity: read the enclosing region, decipher, modify,
        re-cipher, write back (§2.2).
        """
        start = addr - addr % gran
        end = -(-(addr + len(data)) // gran) * gran
        self.stats.rmw_operations += 1
        if self.sink is not None:
            self._emit("rmw", addr, end - start)
            self._emit("decipher", start, end - start)
            self._emit("encipher", start, end - start)

        ciphertext, read_cycles = port.read(start, end - start)
        dec_extra = self.read_extra_cycles(start, end - start, read_cycles)
        block = bytearray(
            self.decrypt_line(start, ciphertext) if self.functional
            else ciphertext
        )
        block[addr - start: addr - start + len(data)] = data
        enc_extra = self.write_extra_cycles(start, end - start)
        self.stats.extra_read_cycles += dec_extra
        self.stats.extra_write_cycles += enc_extra
        if dec_extra + enc_extra:
            self._emit("stall", addr, dec_extra + enc_extra, "rmw")
        new_ciphertext = self.encrypt_line(start, bytes(block)) \
            if self.functional else bytes(block)
        write_cycles = port.write(start, new_ciphertext)
        return read_cycles + dec_extra + enc_extra + write_cycles

    def _line_rmw(self, port: MemoryPort, addr: int, data: bytes,
                  line_size: int) -> int:
        """Line-granular read-verify-modify-write; returns cycles.

        For engines whose verdict covers a whole line (a tag, a tree
        leaf): the enclosing line comes in through the engine's own
        :meth:`fill_line`, verification included, is patched, and goes
        back out as a one-line :meth:`spill_lines`.
        """
        start = addr - addr % line_size
        self.stats.rmw_operations += 1
        self._emit("rmw", addr, line_size)
        plaintext, read_cycles = self.fill_line(port, start, line_size)
        patched = bytearray(plaintext)
        patched[addr - start: addr - start + len(data)] = data
        return read_cycles + self.write_line(port, start, bytes(patched))

    # -- reporting ----------------------------------------------------------

    @abstractmethod
    def area(self) -> AreaEstimate:
        """Itemized gate-count estimate for the engine."""

    def reset_stats(self) -> None:
        self.stats.reset()
        self.verdicts.reset()


class NullEngine(BusEncryptionEngine):
    """No encryption: the plaintext baseline every overhead is measured against."""

    name = "plaintext"
    _cipher_events = False   # nothing is enciphered on the baseline

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        return plaintext

    def decrypt_lines(self, items):
        return [ciphertext for _, ciphertext in items]

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        return 0

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        return 0

    def area(self) -> AreaEstimate:
        return AreaEstimate(self.name)


class BlockModeEngine(BusEncryptionEngine):
    """Common base for engines built on a block cipher and a pipelined unit.

    Subclasses supply the functional transform; this base accounts timing:
    decryption drains behind the arriving bus beats, encryption runs before
    the bus write.
    """

    def __init__(self, unit: PipelinedUnit, cipher_block: int,
                 functional: bool = True, bus_width: int = 8,
                 cycles_per_beat: int = 1):
        super().__init__(functional=functional)
        self.unit = unit
        self.cipher_block = cipher_block
        self.min_write_bytes = cipher_block
        self.bus_width = bus_width
        self.cycles_per_beat = cycles_per_beat
        #: Per-line costs by line size (see :meth:`_sized_cost`); the
        #: timing parameters above are fixed once the engine is built.
        self._read_costs: dict = {}
        self._write_costs: dict = {}

    def _nblocks(self, nbytes: int) -> int:
        return -(-nbytes // self.cipher_block)

    def _arrival_interval(self) -> int:
        """Cycles between successive ciphertext blocks arriving off the bus."""
        beats_per_block = -(-self.cipher_block // self.bus_width)
        return max(1, beats_per_block * self.cycles_per_beat)

    def _read_cost(self, nbytes: int) -> int:
        """Cycles a fill of ``nbytes`` adds: a function of the size alone.

        A block can be issued to the decipher pipeline once its bus beats
        have arrived; the fill's critical path therefore extends past the
        last beat by the pipeline drain time.
        """
        return self.unit.drain_after_arrivals(self._nblocks(nbytes),
                                              self._arrival_interval())

    def _write_cost(self, nbytes: int) -> int:
        """Cycles a write of ``nbytes`` adds: a function of the size alone."""
        return self.unit.time_for(self._nblocks(nbytes))

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        self.stats.blocks_processed += self._nblocks(nbytes)
        return self._read_cost(nbytes)

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        self.stats.blocks_processed += self._nblocks(nbytes)
        return self._write_cost(nbytes)

    # A line's cost is a function of its size, so it is priced once per
    # engine and size, and each line only counts its blocks.  Where the
    # engine's class or the instance itself overrides the per-line method,
    # that method prices each line.

    def read_extra_cycles_for(self, nbytes: int):
        per_line = self.read_extra_cycles
        if getattr(per_line, "__func__", None) is not \
                BlockModeEngine.read_extra_cycles:
            return per_line
        return self._sized_cost(self._read_costs, self._read_cost, nbytes)

    def write_extra_cycles_for(self, nbytes: int):
        per_line = self.write_extra_cycles
        if getattr(per_line, "__func__", None) is not \
                BlockModeEngine.write_extra_cycles:
            return per_line
        return self._sized_cost(self._write_costs, self._write_cost, nbytes)

    def _sized_cost(self, memo: dict, cost: Callable[[int], int],
                    nbytes: int):
        """The per-line cost of ``nbytes``-byte lines, kept in ``memo``:
        returns ``cost(nbytes)`` and counts each line's blocks."""
        line_cost = memo.get(nbytes)
        if line_cost is None:
            stats = self.stats
            nblocks = self._nblocks(nbytes)
            extra = cost(nbytes)

            def line_cost(addr: int, size: int, mem_cycles: int = 0) -> int:
                stats.blocks_processed += nblocks
                return extra
            memo[nbytes] = line_cost
        return line_cost


class TweakedECBEngine(BlockModeEngine):
    """Address-tweaked ECB over a 64-bit block cipher (DS5240, Gilmont).

    Every 8-byte block is XORed with its own big-endian address before the
    cipher, so no state links one block to the next: a whole install
    batch or fill group goes through one kernel call.
    """

    def __init__(self, cipher, unit: PipelinedUnit, functional: bool = True,
                 **kwargs):
        super().__init__(unit=unit, cipher_block=8, functional=functional,
                         **kwargs)
        self._cipher = cipher

    @staticmethod
    def _tweaks(spans: Sequence[Tuple[int, int]]) -> bytes:
        """The tweak of every 8-byte block of the ``(addr, nbytes)`` spans."""
        return b"".join(
            (addr + i).to_bytes(8, "big")
            for addr, nbytes in spans for i in range(0, nbytes, 8)
        )

    def encrypt_lines(self, items):
        tweaks = self._tweaks([(addr, len(line)) for addr, line in items])
        plain = b"".join(line for _, line in items)
        ct = self._cipher.encrypt_blocks(xor_bytes(plain, tweaks))
        return self._split_batch(ct, items)

    def decrypt_lines(self, items):
        decrypted = self._cipher.decrypt_blocks(
            b"".join(ciphertext for _, ciphertext in items))
        tweaks = self._tweaks([(addr, len(ct)) for addr, ct in items])
        return self._split_batch(xor_bytes(decrypted, tweaks), items)


#: Memoized whole-unit CBC transforms, keyed (raw key, "enc"/"dec", unit
#: base, bytes).  ~1 KiB per entry at the default unit size.
_CHAIN_MEMO: "OrderedDict[tuple, bytes]" = OrderedDict()
_CHAIN_MEMO_MAX = 512


def _memo_get(key: tuple) -> Optional[bytes]:
    cached = _CHAIN_MEMO.get(key)
    if cached is not None:
        _CHAIN_MEMO.move_to_end(key)
    return cached


def _memo_put(key: tuple, value: bytes) -> bytes:
    _CHAIN_MEMO[key] = value
    while len(_CHAIN_MEMO) > _CHAIN_MEMO_MAX:
        _CHAIN_MEMO.popitem(last=False)
    return value


class ChainedTDESEngine(BusEncryptionEngine):
    """3DES-CBC over fixed-size chain units: VLSI's pages, GI's regions.

    Each ``chain_size``-byte unit is one CBC chain whose IV is the 3DES
    image of the unit's base address, so a whole-unit transform is a pure
    function of (key, base, bytes).  The suite re-installs the same images
    into fresh rigs constantly, and the serial chain is the most expensive
    cipher in the registry, so identical transforms are memoized
    module-wide; an install enciphers its memo misses in one
    ``encrypt_units`` call, which runs many units' chains in lockstep.
    Lines have no transform of their own: subclasses supply the fill and
    write datapaths, and plug their storage layout into
    :meth:`install_image` and :meth:`read_plain` through
    :meth:`_install_unit` and :meth:`_load_unit`.
    """

    def __init__(self, key: bytes, chain_size: int, unit: PipelinedUnit,
                 functional: bool = True):
        super().__init__(functional=functional)
        self._tdes = tdes_kernel(key)
        # Memo identity: the raw key bytes, not the kernel object — any
        # 3DES for the key (table kernel or reference cipher) computes the
        # same function of (key, base, bytes).
        self._tdes_key = bytes(key)
        self.chain_size = chain_size
        self.unit = unit
        self._ivs: Dict[int, bytes] = {}

    def _chain_base(self, addr: int) -> int:
        return addr - addr % self.chain_size

    def _chain_iv(self, base: int) -> bytes:
        """The unit's IV, the 3DES image of its base (memoized per base)."""
        iv = self._ivs.get(base)
        if iv is None:
            iv = self._ivs[base] = self._tdes.encrypt_block(
                base.to_bytes(8, "big"))
        return iv

    def _chain_transform(self, op: str, base: int, data: bytes) -> bytes:
        """Whole-unit CBC ``op`` ("enc" or "dec") of the unit at ``base``."""
        if op == "enc":
            return self._encrypt_units([(base, data)])[0]
        data = bytes(data)
        key = (self._tdes_key, op, base, data)
        cached = _memo_get(key)
        if cached is None:
            cbc = CBC(self._tdes, self._chain_iv(base))
            cached = _memo_put(key, cbc.decrypt(data))
        return cached

    def _encrypt_units(self, units: Sequence[Tuple[int, bytes]]
                       ) -> List[bytes]:
        """Whole-unit CBC encryption of ``(base, plaintext)`` units: memo
        hits from the memo, every miss in one ``encrypt_units`` call."""
        keys = [(self._tdes_key, "enc", base, bytes(data))
                for base, data in units]
        out = [_memo_get(key) for key in keys]
        misses = [i for i, ct in enumerate(out) if ct is None]
        if misses:
            size = self.chain_size
            cts = self._tdes.encrypt_units(
                b"".join(self._chain_iv(keys[i][2]) for i in misses),
                b"".join(keys[i][3] for i in misses), size)
            for n, i in enumerate(misses):
                out[i] = _memo_put(keys[i], cts[n * size: (n + 1) * size])
        return out

    def _whole_units_only(self, *args):
        raise NotImplementedError(
            f"{self.name} enciphers whole chain units: use install_image, "
            f"fill_lines, spill_lines or read_plain")

    encrypt_line = decrypt_line = _whole_units_only
    read_extra_cycles = write_extra_cycles = _whole_units_only

    def _install_unit(self, memory, base: int, ciphertext: bytes) -> None:
        """Store one enciphered unit (layout hook of :meth:`install_image`)."""
        memory.load_image(base, ciphertext)

    def _load_unit(self, base: int, stored: bytes) -> bytes:
        """Stored bytes of one unit -> its ciphertext in chain order."""
        return stored

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        size = self.chain_size
        if base_addr % size != 0:
            raise ValueError(f"image base {base_addr:#x} must align to the "
                             f"{size}-byte chain unit")
        plaintext = plaintext + b"\x00" * (-len(plaintext) % size)
        units = [(base_addr + offset, plaintext[offset: offset + size])
                 for offset in range(0, len(plaintext), size)]
        for (base, _), ciphertext in zip(units, self._encrypt_units(units)):
            self._install_unit(memory, base, ciphertext)

    def read_plain(self, memory, addr: int, nbytes: int,
                   line_size: int = 32) -> bytes:
        first = self._chain_base(addr)
        out = bytearray()
        for base in range(first, addr + nbytes, self.chain_size):
            stored = memory.dump(base, self.chain_size)
            out += self._chain_transform("dec", base,
                                         self._load_unit(base, stored))
        return bytes(out[addr - first: addr - first + nbytes])


class WrappedEngine(BusEncryptionEngine):
    """An engine around an inner confidentiality engine ``inner``.

    The line transform and its timing are the inner engine's; subclasses
    add what they wrap around it (tags, a hash tree, compression, address
    scrambling).  An attached sink reaches both engines.
    """

    def __init__(self, inner: BusEncryptionEngine):
        super().__init__(functional=inner.functional)
        self.inner = inner

    def attach_sink(self, sink: Optional[EventSink]) -> None:
        """Attach an event sink to this engine and the inner engine."""
        super().attach_sink(sink)
        self.inner.attach_sink(sink)

    def encrypt_lines(self, items):
        return self.inner.encrypt_lines(items)

    def decrypt_lines(self, items):
        return self.inner.decrypt_lines(items)

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        return self.inner.read_extra_cycles(addr, nbytes, mem_cycles)

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        return self.inner.write_extra_cycles(addr, nbytes)

    def _inner_area(self) -> AreaEstimate:
        """A fresh estimate holding the inner engine's rows as
        ``inner/<label>``."""
        est = AreaEstimate(self.name)
        for label, gates in self.inner.area().items.items():
            est.add(f"inner/{label}", gates)
        return est


class LineAuthEngine(WrappedEngine):
    """A wrapper whose integrity state covers whole lines (a MAC tag, a
    hash-tree leaf).

    Fills check each line through :meth:`_verify_fill`.  A spill group
    is enciphered in one call; then each line is stored and its state
    updated through :meth:`_update_auth`; a narrower write is a
    :meth:`_line_rmw`.
    """

    @abstractmethod
    def _update_auth(self, port: MemoryPort, addr: int, ciphertext: bytes
                     ) -> Tuple[int, int]:
        """Update the stored line's integrity state; returns (cycles,
        the part of them counted as write stall)."""

    def spill_lines(self, port, items):
        ciphertexts = self.encrypt_lines(items) if self.functional \
            else [bytes(plaintext) for _, plaintext in items]
        out = []
        for (addr, plaintext), ciphertext in zip(items, ciphertexts):
            extra = self.write_extra_cycles(addr, len(plaintext))
            cycles = extra + port.write(addr, ciphertext)
            auth_cycles, auth_stall = self._update_auth(port, addr,
                                                        ciphertext)
            self.stats.lines_encrypted += 1
            self.stats.extra_write_cycles += extra + auth_stall
            # Unlike _store, the events follow the port writes.
            self._emit("encipher", addr, len(plaintext))
            if extra + auth_stall:
                self._emit("stall", addr, extra + auth_stall, "write")
            out.append(cycles + auth_cycles)
        return out

    write_partial = BusEncryptionEngine._line_rmw

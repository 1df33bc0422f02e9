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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..crypto.modes import xor_bytes
from ..obs import EventSink, TraceEvent
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit

__all__ = ["Placement", "EngineStats", "MemoryPort", "BusEncryptionEngine",
           "NullEngine", "BlockModeEngine", "TweakedECBEngine",
           "TamperDetected", "TamperVerdicts"]


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
    configuration; every engine transfer goes through here so that probes
    see exactly the bytes that cross the chip boundary.
    """

    def __init__(self, memory, bus, clock=None):
        self.memory = memory
        self.bus = bus
        self._clock = clock  # callable returning current cycle, for probes

    def _cycle(self) -> int:
        return self._clock() if self._clock else 0

    def read(self, addr: int, nbytes: int) -> Tuple[bytes, int]:
        """Read ``nbytes``; returns (data, cycles).

        The engine receives the bytes the *bus* delivered: an interposer
        on either the memory array or the wires (see
        :meth:`repro.sim.bus.Bus.transfer`) tampers with exactly what the
        chip decrypts, never with what a separate bookkeeping copy holds.
        """
        data = self.memory.read(addr, nbytes)
        data = self.bus.transfer("read", addr, data, self._cycle())
        return data, self.memory.config.read_cycles(nbytes)

    def write(self, addr: int, data: bytes) -> int:
        """Write ``data``; returns cycles."""
        self.memory.write(addr, data)
        self.bus.transfer("write", addr, data, self._cycle())
        return self.memory.config.write_cycles(len(data))


class BusEncryptionEngine(ABC):
    """Abstract EDU.

    Concrete engines define the functional transform (``encrypt_line`` /
    ``decrypt_line``) and the added latency.  ``fill_line`` / ``write_line``
    are the entry points the system calls; the defaults implement the common
    pattern (fetch ciphertext, decrypt; encrypt, store) and can be overridden
    for engines with richer behaviour (page DMA, prefetchers, pads).
    """

    name: str = "abstract"
    placement: Placement = Placement.CACHE_MEMORY
    #: Smallest write the engine can absorb without a read-modify-write.
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
        """Attach an event sink to this engine and any wrapped inner engine."""
        self.sink = sink
        inner = getattr(self, "inner", None) or getattr(self, "_inner", None)
        if inner is not None:
            inner.attach_sink(sink)

    def _emit(self, kind: str, addr: int = 0, size: int = 0,
              detail: str = "") -> None:
        if self.sink is not None and self._cipher_events:
            self.sink.emit(TraceEvent(kind=kind, addr=addr, size=size,
                                      detail=detail))

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

    @abstractmethod
    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        """Transform a line for storage in external memory."""

    @abstractmethod
    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt_line`."""

    # -- timing ------------------------------------------------------------

    @abstractmethod
    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        """Cycles added to a line fill beyond the raw memory fetch."""

    @abstractmethod
    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        """Cycles added to a full-line write beyond the raw memory store."""

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

    def fill_line(self, port: MemoryPort, addr: int, line_size: int
                  ) -> Tuple[bytes, int]:
        """Service a cache-line fill; returns (plaintext, total cycles)."""
        ciphertext, mem_cycles = port.read(addr, line_size)
        extra = self.read_extra_cycles(addr, line_size, mem_cycles)
        self.stats.lines_decrypted += 1
        self.stats.extra_read_cycles += extra
        # Miss-path hot loop: guard inline so the disabled path costs one
        # is-None test, not a method call per fill.
        if self.sink is not None:
            self._emit("decipher", addr, line_size)
            if extra:
                self._emit("stall", addr, extra, "read")
        plaintext = self.decrypt_line(addr, ciphertext) if self.functional \
            else ciphertext
        return plaintext, mem_cycles + extra

    def write_line(self, port: MemoryPort, addr: int, plaintext: bytes) -> int:
        """Service a full-line writeback; returns total cycles."""
        extra = self.write_extra_cycles(addr, len(plaintext))
        self.stats.lines_encrypted += 1
        self.stats.extra_write_cycles += extra
        if self.sink is not None:
            self._emit("encipher", addr, len(plaintext))
            if extra:
                self._emit("stall", addr, extra, "write")
        ciphertext = self.encrypt_line(addr, plaintext) if self.functional \
            else plaintext
        return extra + port.write(addr, ciphertext)

    # -- bulk entry points ---------------------------------------------------
    #
    # The batched trace executor (repro.sim.fastpath) collects the miss
    # stream and hands whole groups of line fills/writebacks to the engine
    # at once.  The defaults preserve scalar semantics exactly — same
    # per-line port traffic, stats, events and cycle accounting, in the
    # same order — so every engine works unported; engines with batched
    # kernels override to amortize the crypto across the group.

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        """Service a group of cache-line fills; one (plaintext, cycles) each.

        Must behave exactly like ``[fill_line(port, a, line_size) for a in
        addrs]``: bulk implementations may batch the *byte transforms* but
        keep the per-line bus reads, stats updates and events in order.
        """
        return [self.fill_line(port, addr, line_size) for addr in addrs]

    def _fill_batch(self, port: MemoryPort, addrs: Sequence[int],
                    line_size: int, decrypt: Callable[[bytes], bytes]
                    ) -> List[Tuple[bytes, int]]:
        """A :meth:`fill_lines` whose byte transform runs once per group.

        For each line in order: the bus read, :meth:`read_extra_cycles`,
        the stats and the ``decipher``/``stall`` events — exactly what
        :meth:`fill_line` does.  Then, on a functional engine only,
        ``decrypt`` maps the group's concatenated ciphertext to its
        concatenated plaintext, which is split back into lines.
        """
        fetched: List[Tuple[bytes, int]] = []
        for addr in addrs:
            ciphertext, mem_cycles = port.read(addr, line_size)
            extra = self.read_extra_cycles(addr, line_size, mem_cycles)
            self.stats.lines_decrypted += 1
            self.stats.extra_read_cycles += extra
            if self.sink is not None:
                self._emit("decipher", addr, line_size)
                if extra:
                    self._emit("stall", addr, extra, "read")
            fetched.append((ciphertext, mem_cycles + extra))
        if not self.functional or not fetched:
            return fetched
        plain = decrypt(b"".join([ciphertext for ciphertext, _ in fetched]))
        return [
            (plain[i * line_size: (i + 1) * line_size], cycles)
            for i, (_, cycles) in enumerate(fetched)
        ]

    def spill_lines(self, port: MemoryPort,
                    writes: Sequence[Tuple[int, bytes]]) -> List[int]:
        """Service a group of full-line writebacks; returns cycles per line.

        The bulk dual of :meth:`write_line`, with the same equivalence
        contract as :meth:`fill_lines`.
        """
        return [self.write_line(port, addr, data) for addr, data in writes]

    def encrypt_lines(self, items: Sequence[Tuple[int, bytes]]
                      ) -> List[bytes]:
        """Offline batch encryption of ``(addr, line)`` pairs, in order.

        The install-time dual of :meth:`fill_lines`: must return exactly
        ``[self.encrypt_line(addr, line) for addr, line in items]``
        including any per-line engine state the transform advances
        (stream versions, AEGIS vectors).  No port traffic, stats or
        events are involved — installation is offline (§2.1 step 6) — so
        bulk overrides are free to batch the whole image through one
        kernel call.
        """
        return [self.encrypt_line(addr, line) for addr, line in items]

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

        When the write is narrower than the cipher granularity this is the
        survey's five-step penalty: read the enclosing block, decipher,
        modify, re-cipher, write back (§2.2).
        """
        if len(data) >= self.min_write_bytes and \
                addr % self.min_write_bytes == 0 and \
                len(data) % self.min_write_bytes == 0:
            # Aligned to cipher granularity: direct encrypt-and-store.
            extra = self.write_extra_cycles(addr, len(data))
            self.stats.extra_write_cycles += extra
            if self.sink is not None:
                self._emit("encipher", addr, len(data))
                if extra:
                    self._emit("stall", addr, extra, "write")
            ciphertext = self.encrypt_line(addr, data) if self.functional else data
            return extra + port.write(addr, ciphertext)

        # Read-modify-write over the enclosing cipher-aligned region.
        gran = self.min_write_bytes
        start = (addr // gran) * gran
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
    min_write_bytes = 1
    _cipher_events = False   # nothing is enciphered on the baseline

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        return plaintext

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return ciphertext

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        return 0

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        return 0

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        # Identity transform, zero extra cycles, no cipher events: the
        # bulk fill is just the bus reads plus the decrypt counter.
        out = []
        for addr in addrs:
            data, mem_cycles = port.read(addr, line_size)
            self.stats.lines_decrypted += 1
            out.append((data, mem_cycles))
        return out

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

    def _nblocks(self, nbytes: int) -> int:
        return -(-nbytes // self.cipher_block)

    def _arrival_interval(self) -> int:
        """Cycles between successive ciphertext blocks arriving off the bus."""
        beats_per_block = -(-self.cipher_block // self.bus_width)
        return max(1, beats_per_block * self.cycles_per_beat)

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        nblocks = self._nblocks(nbytes)
        self.stats.blocks_processed += nblocks
        # A block can be issued to the decipher pipeline once its bus beats
        # have arrived; the fill's critical path therefore extends past the
        # last beat by the pipeline drain time.
        return self.unit.drain_after_arrivals(nblocks, self._arrival_interval())

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        nblocks = self._nblocks(nbytes)
        self.stats.blocks_processed += nblocks
        return self.unit.time_for(nblocks)


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

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        tweaks = self._tweaks([(addr, len(plaintext))])
        return self._cipher.encrypt_blocks(xor_bytes(plaintext, tweaks))

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        decrypted = self._cipher.decrypt_blocks(ciphertext)
        return xor_bytes(decrypted, self._tweaks([(addr, len(ciphertext))]))

    def encrypt_lines(self, items):
        if not items or any(len(line) % 8 for _, line in items):
            return super().encrypt_lines(items)
        tweaks = self._tweaks([(addr, len(line)) for addr, line in items])
        plain = b"".join(line for _, line in items)
        ct = self._cipher.encrypt_blocks(xor_bytes(plain, tweaks))
        return self._split_batch(ct, items)

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        if self.functional and line_size % 8:
            return super().fill_lines(port, addrs, line_size)
        return self._fill_batch(
            port, addrs, line_size,
            lambda ct: xor_bytes(
                self._cipher.decrypt_blocks(ct),
                self._tweaks([(addr, line_size) for addr in addrs]),
            ),
        )

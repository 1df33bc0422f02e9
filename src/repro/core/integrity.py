"""Integrity-protected bus encryption (the survey's §5 future work).

"In future exploration, it might also be relevant to take into account the
problem of integrity, to thwart attacks based on the modification of the
fetched instructions."

:class:`IntegrityShieldEngine` composes any confidentiality engine with
per-cache-line authentication:

* every line carries a truncated HMAC-SHA256 tag over
  ``(address, version, ciphertext)``, stored in a reserved tag region of
  external memory (like real integrity engines' tag arrays);
* line fills fetch and verify the tag; a mismatch raises
  :class:`TamperDetected` — spoofed or corrupted instructions never reach
  the CPU;
* **replay protection** is the interesting design choice: with
  ``versioned=True`` (default) each line's write counter is kept in on-chip
  SRAM and mixed into the tag, so replaying an *old* (ciphertext, tag) pair
  recorded from the bus is detected.  With ``versioned=False`` the tag only
  covers (address, ciphertext), and a recorded pair replays cleanly — the
  ablation E15 measures, and the reason real designs (AEGIS trees) pay for
  version state.

Timing: each fill adds a tag fetch (through a small on-chip tag cache —
tags have 4-to-a-block spatial locality) plus the residual of the MAC
check that does not overlap the data fetch; each writeback adds a tag
computation and store.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..crypto.hmac import consttime_eq, hmac_sha256
from ..sim.area import AreaEstimate
from .engine import (BusEncryptionEngine, LineAuthEngine, MemoryPort,
                     TamperDetected)

# TamperDetected historically lived here; it is now the canonical verdict
# exception in repro.core.engine and stays importable from this module.
__all__ = ["IntegrityShieldEngine", "TamperDetected"]


class IntegrityShieldEngine(LineAuthEngine):
    """Confidentiality engine + per-line MAC tags + optional anti-replay."""

    name = "integrity-shield"

    def __init__(
        self,
        inner: BusEncryptionEngine,
        mac_key: bytes,
        tag_region_base: int,
        tag_bytes: int = 8,
        versioned: bool = True,
        hash_latency: int = 64,
        tracked_lines: int = 4096,
        tag_cache_blocks: int = 32,
    ):
        super().__init__(inner)
        if not 4 <= tag_bytes <= 32:
            raise ValueError(f"tag_bytes must be in [4, 32], got {tag_bytes}")
        self.mac_key = mac_key
        self.tag_region_base = tag_region_base
        self.tag_bytes = tag_bytes
        self.versioned = versioned
        self.hash_latency = hash_latency
        self.tracked_lines = tracked_lines
        #: On-chip write counters (anti-replay state).
        self._versions: Dict[int, int] = {}
        #: On-chip tag cache: tags have spatial locality (a 32-byte tag
        #: block covers 32/tag_bytes consecutive data lines), so sequential
        #: fills amortize one tag fetch over several lines.  Size 0 fetches
        #: every tag individually (the naive model, kept as an ablation).
        self.tag_cache_blocks = tag_cache_blocks
        from collections import OrderedDict
        self._tag_cache: "OrderedDict[int, bytearray]" = OrderedDict()
        self.tag_cache_hits = 0
        self.tag_cache_misses = 0

    @property
    def detects(self) -> FrozenSet[str]:
        """Fault kinds the shield catches: any forged/relocated/flipped
        line breaks its (address, version, ciphertext) tag; replay of a
        recorded (line, tag) pair needs the on-chip version counters."""
        kinds = {"spoof", "splice", "glitch"}
        if self.versioned:
            kinds.add("replay")
        return frozenset(kinds)

    # -- tag plumbing -----------------------------------------------------

    def _tag_addr(self, addr: int, line_size: int) -> int:
        return self.tag_region_base + (addr // line_size) * self.tag_bytes

    def _compute_tag(self, addr: int, ciphertext: bytes) -> bytes:
        version = self._versions.get(addr, 0) if self.versioned else 0
        material = (
            addr.to_bytes(8, "big")
            + version.to_bytes(8, "big")
            + ciphertext
        )
        return hmac_sha256(self.mac_key, material)[: self.tag_bytes]

    # -- tag cache (32-byte tag blocks) -------------------------------------

    def _read_tag(self, port: MemoryPort, addr: int, line_size: int
                  ) -> Tuple[bytes, int]:
        """Fetch one line's tag, through the on-chip tag cache."""
        tag_addr = self._tag_addr(addr, line_size)
        if self.tag_cache_blocks <= 0:
            tag, cycles = port.read(tag_addr, self.tag_bytes)
            return bytes(tag), cycles
        block_addr = tag_addr - tag_addr % 32
        offset = tag_addr - block_addr
        block = self._tag_cache.get(block_addr)
        if block is not None:
            self._tag_cache.move_to_end(block_addr)
            self.tag_cache_hits += 1
            return bytes(block[offset: offset + self.tag_bytes]), 1
        self.tag_cache_misses += 1
        data, cycles = port.read(block_addr, 32)
        block = bytearray(data)
        self._tag_cache[block_addr] = block
        while len(self._tag_cache) > self.tag_cache_blocks:
            self._tag_cache.popitem(last=False)
        return bytes(block[offset: offset + self.tag_bytes]), cycles

    def _write_tag(self, port: MemoryPort, addr: int, line_size: int,
                   tag: bytes) -> int:
        """Store one line's tag, keeping the cache coherent."""
        tag_addr = self._tag_addr(addr, line_size)
        if self.tag_cache_blocks > 0:
            block_addr = tag_addr - tag_addr % 32
            block = self._tag_cache.get(block_addr)
            if block is not None:
                offset = tag_addr - block_addr
                block[offset: offset + self.tag_bytes] = tag
        return port.write(tag_addr, tag)

    # -- installation -------------------------------------------------------

    def install_image(self, memory, base_addr: int, plaintext: bytes,
                      line_size: int = 32) -> None:
        if len(plaintext) % line_size != 0:
            plaintext = plaintext + b"\x00" * (
                line_size - len(plaintext) % line_size
            )
        items = [
            (base_addr + offset, plaintext[offset: offset + line_size])
            for offset in range(0, len(plaintext), line_size)
        ]
        for (addr, _), ciphertext in zip(items, self.encrypt_lines(items)):
            memory.load_image(addr, ciphertext)
            memory.load_image(
                self._tag_addr(addr, line_size),
                self._compute_tag(addr, ciphertext),
            )

    # -- verdict and write hooks ----------------------------------------------

    def _verify_fill(self, port: MemoryPort, addr: int, line_size: int,
                     ciphertext: bytes, mem_cycles: int) -> int:
        tag, tag_cycles = self._read_tag(port, addr, line_size)
        # The MAC engine digests ciphertext beats as they arrive, so only
        # the residual drain past the fetch lands on the critical path.
        hash_residual = max(0, self.hash_latency - mem_cycles) + 4
        ok = (not self.functional
              or consttime_eq(bytes(tag),
                              self._compute_tag(addr, ciphertext)))
        if not self.verify_line(addr, line_size, ok):
            raise TamperDetected(
                f"line at {addr:#x} failed integrity verification"
            )
        return tag_cycles + hash_residual

    def _update_auth(self, port: MemoryPort, addr: int, ciphertext: bytes
                     ) -> Tuple[int, int]:
        if self.versioned:
            self._versions[addr] = self._versions.get(addr, 0) + 1
        tag = self._compute_tag(addr, ciphertext) if self.functional \
            else bytes(self.tag_bytes)
        cycles = self._write_tag(port, addr, len(ciphertext), tag)
        return cycles + self.hash_latency, self.hash_latency

    # -- area ---------------------------------------------------------------

    def area(self) -> AreaEstimate:
        est = self._inner_area()
        est.add_block("hmac_sha256")
        if self.versioned:
            est.add_sram("version-table", 4 * self.tracked_lines)
        if self.tag_cache_blocks > 0:
            est.add_sram("tag-cache", 32 * self.tag_cache_blocks)
        est.add_block("control_overhead")
        return est

    # -- memory overhead -------------------------------------------------------

    def tag_overhead_fraction(self, line_size: int) -> float:
        """External-memory space consumed by tags (e.g. 8/32 = 25%)."""
        return self.tag_bytes / line_size

"""General Instrument's 3DES-CBC engine with keyed-hash authentication
(survey Figure 5, patent [11]).

"Another patent, by General Instrument Corporation, proposed to encrypt the
memory content with a 3-DES in block chaining mode (CBC), and to offer the
possibility to authenticate the data coming from external memory thanks to a
keyed hash algorithm.  Nonetheless ... cipher block chaining technique is
very robust but implies unacceptable CPU performance degradation for random
accesses in external memory."

Modeling notes.  The patent chains (and reorders) blocks across a whole
protected *region*; reconstructing any line requires processing the chain
from the region start — that is the random-access penalty the survey calls
unacceptable, and what E08 measures.  A write to a line invalidates every
subsequent ciphertext block in its region, so the chain is re-enciphered
from the written block to the region end.  Region size is a parameter
(whole-image chaining is ``region_size = image size``); at
``region_size == line_size`` the design degenerates into AEGIS-style
per-line chaining, which E08's sweep includes as the fixed point.

Authentication: each region carries an HMAC-SHA256 tag over its ciphertext
(encrypt-then-MAC).  ``verify_region`` recomputes it, detecting any bus- or
memory-level tamper; the timing model charges one hash-pipeline pass per
verified region entry.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..crypto.hmac import hmac_sha256, verify_hmac
from ..crypto.modes import CBC, xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit, TDES_ITERATIVE
from .engine import (BusEncryptionEngine, ChainedTDESEngine, MemoryPort,
                     TamperDetected)

__all__ = ["GeneralInstrumentEngine", "AuthenticationError"]


class AuthenticationError(TamperDetected):
    """A region's keyed-hash tag did not match its contents."""


class GeneralInstrumentEngine(ChainedTDESEngine):
    """Region-chained 3DES-CBC with HMAC authentication."""

    name = "general-instrument-3des-cbc"

    def __init__(
        self,
        key: bytes,
        mac_key: bytes = None,
        region_size: int = 1024,
        line_size: int = 32,
        unit: PipelinedUnit = TDES_ITERATIVE,
        authenticate: bool = True,
        reorder: bool = False,
        hash_latency: int = 64,
        functional: bool = True,
    ):
        if region_size % line_size != 0:
            raise ValueError(
                f"region_size {region_size} must be a multiple of "
                f"line_size {line_size}"
            )
        super().__init__(key, region_size, unit, functional=functional)
        self._mac_key = mac_key if mac_key is not None else bytes(
            b ^ 0xA5 for b in key
        )
        self.line_size = line_size
        self.authenticate = authenticate
        #: The patent's second layer: ciphertext blocks are stored in a
        #: keyed permuted order within the region.  Costs the sequential
        #: chain shortcut (continuations become scattered fetches) and
        #: turns restarts into whole-region bursts.
        self.reorder = reorder
        self.hash_latency = hash_latency
        self._perm_cache: Dict[int, list] = {}
        #: Region base address -> HMAC tag over the region ciphertext.
        self._tags: Dict[int, bytes] = {}
        #: Regions whose tag has been checked since last modification.
        self._verified: set = set()
        #: CBC chain register: region base -> (next sequential address,
        #: last ciphertext block).  A fill continuing exactly where the
        #: previous one stopped keeps chaining without reprocessing the
        #: prefix — the hardware keeps the chaining value in a register, so
        #: sequential walks are cheap and JUMPs pay the restart (§2.2).
        self._chain_state: Dict[int, Tuple[int, bytes]] = {}
        self.chain_hits = 0
        self.chain_restarts = 0

    @property
    def detects(self) -> FrozenSet[str]:
        """With ``authenticate=True`` the keyed hash over a whole region's
        ciphertext catches every stored-bytes attack, replay included —
        the reference tag lives in on-chip state, not in external memory.
        Without it the chained cipher only garbles, never rejects."""
        if not self.authenticate:
            return frozenset()
        return frozenset({"spoof", "splice", "replay", "glitch"})

    @property
    def region_size(self) -> int:
        """Bytes per CBC chain: the base class's ``chain_size``."""
        return self.chain_size

    # -- block reordering ---------------------------------------------------

    def _permutation(self, base: int) -> list:
        """Keyed storage permutation: logical block i lives at slot P[i]."""
        cached = self._perm_cache.get(base)
        if cached is not None:
            return cached
        from ..crypto.hmac import prf

        n = self.region_size // 8
        material = prf(self._mac_key, b"reorder", base.to_bytes(8, "big"),
                       out_len=4 * n)
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            r = int.from_bytes(material[2 * i: 2 * i + 2], "big") % (i + 1)
            perm[i], perm[r] = perm[r], perm[i]
        self._perm_cache[base] = perm
        return perm

    def _permute_store(self, base: int, logical_ct: bytes) -> bytes:
        """Logical (chained-order) ciphertext -> stored layout."""
        if not self.reorder:
            return logical_ct
        perm = self._permutation(base)
        stored = bytearray(len(logical_ct))
        for i in range(len(logical_ct) // 8):
            stored[perm[i] * 8: perm[i] * 8 + 8] = \
                logical_ct[i * 8: i * 8 + 8]
        return bytes(stored)

    def _install_unit(self, memory, base: int, ciphertext: bytes) -> None:
        """Store a region in its permuted layout and record its tag."""
        stored = self._permute_store(base, ciphertext)
        memory.load_image(base, stored)
        self._tags[base] = hmac_sha256(self._mac_key, stored)

    def _load_unit(self, base: int, stored: bytes) -> bytes:
        """Stored layout -> logical (chained-order) ciphertext."""
        if not self.reorder:
            return stored
        perm = self._permutation(base)
        logical = bytearray(len(stored))
        for i in range(len(stored) // 8):
            logical[i * 8: i * 8 + 8] = \
                stored[perm[i] * 8: perm[i] * 8 + 8]
        return bytes(logical)

    # -- fill / write ---------------------------------------------------------------

    def _check_region_tag(self, base: int, stored: bytes) -> int:
        """First touch of a region since its last write: check its keyed
        hash over the whole stored region; returns the hash's cycles."""
        tag = self._tags.get(base)
        ok = (not self.functional
              or (tag is not None
                  and verify_hmac(self._mac_key, bytes(stored), tag)))
        if not self.verify_line(base, self.region_size, ok):
            raise AuthenticationError(
                f"region at {base:#x} failed keyed-hash verification"
            )
        self._verified.add(base)
        return self.hash_latency

    def _chain_blocks_to(self, base: int, addr: int, nbytes: int) -> int:
        """8-byte chain blocks that must be processed to reach the target."""
        return (addr + nbytes - base) // 8

    def _fill_line_reordered(self, port: MemoryPort, addr: int,
                             line_size: int) -> Tuple[bytes, int]:
        """Reordered layout: any fill is a whole-region burst + un-permute."""
        base = self._chain_base(addr)
        stored, cycles = port.read(base, self.region_size)
        nblocks = self._chain_blocks_to(base, addr, line_size)
        extra = self.unit.drain_after_arrivals(nblocks, 1)
        cycles += extra
        self.stats.lines_decrypted += 1
        self.stats.blocks_processed += line_size // 8
        self.stats.extra_read_cycles += extra
        self._emit("decipher", addr, line_size, "reordered")
        if extra:
            self._emit("stall", addr, extra, "read")

        if self.authenticate and base not in self._verified:
            cycles += self._check_region_tag(base, stored)

        if self.functional:
            logical = self._load_unit(base, bytes(stored))
            offset = addr - base
            chain_iv = (logical[offset - 8: offset] if offset > 0
                        else self._chain_iv(base))
            plaintext = CBC(self._tdes, chain_iv).decrypt(
                logical[offset: offset + line_size]
            )
        else:
            plaintext = bytes(stored[addr - base: addr - base + line_size])
        return plaintext, cycles

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        if self.reorder:
            return [self._fill_line_reordered(port, addr, line_size)
                    for addr in addrs]
        # Each line's ciphertext, and the blocks each of its blocks chains
        # from (its chain IV, then its own blocks but the last): CBC
        # decryption has no chain dependency, so the whole group
        # deciphers in one call after the loop.
        cts: List[bytes] = []
        prevs: List[bytes] = []
        line_cycles: List[int] = []
        for addr in addrs:
            base = self._chain_base(addr)
            chain = self._chain_state.get(base)
            cycles = 0

            if chain is not None and chain[0] == addr:
                # Sequential continuation: the chaining value sits in the
                # hardware register; only the requested line crosses the bus.
                self.chain_hits += 1
                chain_iv = chain[1]
                line_ct, mem_cycles = port.read(addr, line_size)
                nblocks = line_size // 8
                extra = self.unit.drain_after_arrivals(nblocks, 1)
                cycles += mem_cycles + extra
                prefix_ct = None
            else:
                # JUMP: the chain restarts from the region base — the random
                # access penalty the survey calls unacceptable.
                self.chain_restarts += 1
                span = addr + line_size - base
                prefix_ct, mem_cycles = port.read(base, span)
                nblocks = self._chain_blocks_to(base, addr, line_size)
                extra = self.unit.drain_after_arrivals(nblocks, 1)
                cycles += mem_cycles + extra
                line_ct = prefix_ct[addr - base:]
                chain_iv = (
                    prefix_ct[addr - base - 8: addr - base]
                    if addr > base else self._chain_iv(base)
                )

            self.stats.lines_decrypted += 1
            self.stats.blocks_processed += line_size // 8
            self.stats.extra_read_cycles += extra
            self._emit("decipher", addr, line_size,
                       "chain" if prefix_ct is None else "jump")
            if extra:
                self._emit("stall", addr, extra, "read")

            if self.authenticate and base not in self._verified:
                # First touch of the region: fetch whatever of the region has
                # not been read yet and verify the keyed hash over all of it.
                already = len(prefix_ct) if prefix_ct is not None else 0
                if prefix_ct is None:
                    head, head_cycles = port.read(base, addr - base)
                    cycles += head_cycles
                    prefix_ct = head + line_ct
                    already = len(prefix_ct)
                rest, rest_cycles = port.read(
                    base + already, self.region_size - already
                )
                cycles += rest_cycles + self._check_region_tag(
                    base, prefix_ct + rest)

            line_ct = bytes(line_ct)
            cts.append(line_ct)
            prevs.append(chain_iv + line_ct[:-8])
            line_cycles.append(cycles)

            # Advance the chain register past this line (unless at region end).
            next_addr = addr + line_size
            if next_addr < base + self.region_size:
                self._chain_state[base] = (next_addr, line_ct[-8:])
            else:
                self._chain_state.pop(base, None)
        if self.functional and cts:
            plain = xor_bytes(self._tdes.decrypt_blocks(b"".join(cts)),
                              b"".join(prevs))
            cts = [plain[i: i + line_size]
                   for i in range(0, len(plain), line_size)]
        return list(zip(cts, line_cycles))

    def spill_lines(self, port: MemoryPort,
                    items: Sequence[Tuple[int, bytes]]) -> List[int]:
        """Rewrite each line in turn: re-encipher the chain from the line
        to its region's end."""
        out: List[int] = []
        for addr, plaintext in items:
            base = self._chain_base(addr)
            # Re-enciphering the tail needs the plaintext of everything
            # from the written line to the region end, hence a full region
            # fetch first.
            cycles = 0
            tail_start = addr - base
            region_ct, read_cycles = port.read(base, self.region_size)
            cycles += read_cycles
            dec_blocks = self.region_size // 8
            cycles += self.unit.drain_after_arrivals(dec_blocks, 1)
            self.stats.blocks_processed += dec_blocks

            if self.functional:
                logical_ct = self._load_unit(base, bytes(region_ct))
                # CBC prefix reuse: blocks before the written line keep
                # their plaintext, so re-enciphering them reproduces the
                # stored ciphertext bit-for-bit.  Only the tail needs the
                # cipher — decrypt it, patch the line, re-chain from the
                # same IV.
                chain_iv = (logical_ct[tail_start - 8: tail_start]
                            if tail_start else self._chain_iv(base))
                tail_plain = bytearray(
                    CBC(self._tdes, chain_iv).decrypt(logical_ct[tail_start:])
                )
                tail_plain[: len(plaintext)] = plaintext
                new_logical = logical_ct[:tail_start] + CBC(
                    self._tdes, chain_iv
                ).encrypt(bytes(tail_plain))
                new_stored = self._permute_store(base, new_logical)
            else:
                region_plain = bytearray(region_ct)
                region_plain[tail_start: tail_start + len(plaintext)] = \
                    plaintext
                new_logical = bytes(region_plain)
                new_stored = new_logical

            enc_blocks = (self.region_size - tail_start) // 8
            # CBC encryption is inherently serial: latency per block.
            enc_cycles = enc_blocks * self.unit.latency
            cycles += enc_cycles
            self.stats.lines_encrypted += 1
            self.stats.extra_write_cycles += enc_cycles
            self._emit("encipher", addr, len(plaintext), "re-chain")
            if enc_cycles:
                self._emit("stall", addr, enc_cycles, "write")
            if self.reorder:
                # The re-enciphered tail scatters across the region: the
                # whole stored region crosses the bus again.
                cycles += port.write(base, new_stored)
            else:
                # Only the modified tail actually crosses the bus again.
                cycles += port.write(base + tail_start,
                                     new_stored[tail_start:])
                if self.functional:
                    # Keep the untouched prefix consistent in the store.
                    port.memory.load_image(base, new_stored[:tail_start])
            if self.functional:
                self._tags[base] = hmac_sha256(self._mac_key, new_stored)
            self._verified.discard(base)
            self._chain_state.pop(base, None)
            if self.authenticate:
                cycles += self.hash_latency
            out.append(cycles)
        return out

    # Any write re-chains the tail: a partial write is a read-verify-
    # modify-write of the enclosing line, charged for both halves.
    write_partial = BusEncryptionEngine._line_rmw

    # -- verification API ----------------------------------------------------------

    def verify_region(self, memory, base: int) -> bool:
        """Recheck one region's tag against memory contents (test hook)."""
        ciphertext = memory.dump(base, self.region_size)
        tag = self._tags.get(base)
        if tag is None:
            return False
        return self.verify_line(
            base, self.region_size, verify_hmac(self._mac_key, ciphertext, tag)
        )

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("tdes_pipelined")
        if self.authenticate:
            est.add_block("hmac_sha256")
        est.add_block("control_overhead")
        return est

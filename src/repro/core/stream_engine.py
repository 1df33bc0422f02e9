"""Stream-cipher (pad-ahead) bus encryption engine (survey Figure 2a).

"In our context, stream cipher seems to be more suitable in term of
performance: the key stream generation can be parallelised with external
data fetch.  The shortcoming of block cipher cryptosystems is that
deciphering cannot start until a complete block has been received."

The engine realizes that observation with AES in counter mode as the
keystream generator (seekable by line address and version, so pads can be
produced *before* the data arrives):

* On a fill, the pad for the line is either already in the on-chip pad
  cache (hit: one XOR cycle on the critical path) or generated concurrently
  with the memory fetch (cost only the amount by which pad generation
  exceeds the fetch, usually zero — the survey's parallelism argument).
* After each fill the engine precomputes pads for the next
  ``pad_ahead_depth`` sequential lines.
* Writes need a *fresh* pad (never reuse keystream): each line carries a
  version counter mixed into the CTR tweak.  ``reuse_pad_on_partial_write``
  (default off) models the tempting-but-broken shortcut of patching bytes
  under the old pad; :mod:`repro.analysis.security` demonstrates the
  two-time-pad leak it causes, and tests pin it.

E02 sweeps memory latency to place the stream-vs-block crossover; E12 reuses
the pad machinery for the CPU-cache placement study.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..crypto.kernels import aes_kernel, ctr_pad
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit, XOM_AES_PIPE
from .engine import BusEncryptionEngine, MemoryPort

__all__ = ["StreamCipherEngine"]


class StreamCipherEngine(BusEncryptionEngine):
    """Seekable-keystream engine with an on-chip pad cache."""

    name = "stream-ctr"
    min_write_bytes = 1
    #: Confidentiality only — worse, XOR pads make undetected bit-flips
    #: *surgical*: flipping ciphertext bit i flips plaintext bit i.
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        line_size: int = 32,
        pad_cache_lines: int = 16,
        pad_ahead_depth: int = 2,
        unit: PipelinedUnit = XOM_AES_PIPE,
        reuse_pad_on_partial_write: bool = False,
        functional: bool = True,
    ):
        super().__init__(functional=functional)
        if pad_cache_lines < 1:
            raise ValueError(f"pad_cache_lines must be >= 1, got {pad_cache_lines}")
        self._aes = aes_kernel(key)
        self.line_size = line_size
        self.unit = unit
        self.pad_cache_lines = pad_cache_lines
        self.pad_ahead_depth = pad_ahead_depth
        self.reuse_pad_on_partial_write = reuse_pad_on_partial_write
        # Pad cache: line address -> precomputed pad bytes (LRU).
        self._pad_cache: "OrderedDict[int, bytes]" = OrderedDict()
        # Per-line write version, mixed into the keystream tweak.
        self._versions: Dict[int, int] = {}

    # -- keystream -----------------------------------------------------------

    def _pad(self, addr: int, nbytes: int, version: Optional[int] = None) -> bytes:
        """Keystream for [addr, addr+nbytes) at the line's current version."""
        if version is None:
            version = self._versions.get(addr - addr % self.line_size, 0)
        prefix = b"pad!" + version.to_bytes(4, "big")
        return ctr_pad(
            self._aes, addr, nbytes,
            lambda block_addr:
                prefix + (block_addr // 16).to_bytes(8, "big"),
        )

    def _pad_blocks(self, nbytes: int) -> int:
        return -(-nbytes // 16)

    def _cache_pad(self, line_addr: int) -> None:
        if line_addr in self._pad_cache:
            self._pad_cache.move_to_end(line_addr)
            return
        pad = self._pad(line_addr, self.line_size) if self.functional else b""
        self._pad_cache[line_addr] = pad
        while len(self._pad_cache) > self.pad_cache_lines:
            self._pad_cache.popitem(last=False)

    # -- functional transform ------------------------------------------------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        line_addr = addr - addr % self.line_size
        # A (re)encryption is a write: advance the version, invalidating any
        # cached pad for the line.
        self._versions[line_addr] = self._versions.get(line_addr, 0) + 1
        self._pad_cache.pop(line_addr, None)
        return xor_bytes(plaintext, self._pad(addr, len(plaintext)))

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return xor_bytes(ciphertext, self._pad(addr, len(ciphertext)))

    def encrypt_lines(self, items):
        # Install batch: advance every line's version in order (exactly
        # like per-line encrypt_line), then produce the whole keystream
        # in one kernel call.
        size = 16
        spans = []
        material = []
        for addr, line in items:
            line_addr = addr - addr % self.line_size
            version = self._versions.get(line_addr, 0) + 1
            self._versions[line_addr] = version
            self._pad_cache.pop(line_addr, None)
            prefix = b"pad!" + version.to_bytes(4, "big")
            start = addr - addr % size
            end = -(-(addr + len(line)) // size) * size
            material.append(b"".join(
                prefix + (block_addr // 16).to_bytes(8, "big")
                for block_addr in range(start, end, size)
            ))
            spans.append((addr - start, end - start))
        pad = self._aes.encrypt_blocks(b"".join(material))
        out = []
        pos = 0
        for (offset, span), (_, line) in zip(spans, items):
            out.append(xor_bytes(line, pad[pos + offset:
                                           pos + offset + len(line)]))
            pos += span
        return out

    # -- timing ---------------------------------------------------------------

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        nblocks = self._pad_blocks(nbytes)
        self.stats.blocks_processed += nblocks
        if addr in self._pad_cache:
            self.stats.pad_hits += 1
            extra = 1  # XOR only
        else:
            self.stats.pad_misses += 1
            pad_cycles = self.unit.time_for(nblocks)
            # Keystream generation runs concurrently with the fetch; only the
            # excess (plus the final XOR) reaches the critical path.
            extra = max(0, pad_cycles - mem_cycles) + 1
        return extra

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        nblocks = self._pad_blocks(nbytes)
        self.stats.blocks_processed += nblocks
        # The fresh-version pad depends only on (addr, version) and can be
        # produced while the writeback sits in the write buffer; one XOR
        # cycle lands on the path.
        return 1

    # -- system hooks ----------------------------------------------------------

    def fill_line(self, port: MemoryPort, addr: int, line_size: int
                  ) -> Tuple[bytes, int]:
        plaintext, cycles = super().fill_line(port, addr, line_size)
        # Pad-ahead: precompute keystream for the next sequential lines.
        for i in range(1, self.pad_ahead_depth + 1):
            self._cache_pad(addr + i * line_size)
        return plaintext, cycles

    def _pads_bulk(self, addrs: Sequence[int], nbytes: int) -> List[bytes]:
        """Decrypt pads for a group of fills in one keystream call.

        Byte-for-byte the same pads :meth:`_pad` produces per line (same
        counter-block layout, batched through one ``encrypt_blocks``).
        Only valid while no write intervenes: versions are read up front.
        """
        size = 16
        spans: List[Tuple[int, int]] = []
        material: List[bytes] = []
        for addr in addrs:
            version = self._versions.get(addr - addr % self.line_size, 0)
            prefix = b"pad!" + version.to_bytes(4, "big")
            start = addr - addr % size
            end = -(-(addr + nbytes) // size) * size
            material.append(b"".join(
                prefix + (block_addr // 16).to_bytes(8, "big")
                for block_addr in range(start, end, size)
            ))
            spans.append((addr - start, end - start))
        pad = self._aes.encrypt_blocks(b"".join(material))
        out: List[bytes] = []
        pos = 0
        for offset, span in spans:
            out.append(pad[pos + offset: pos + offset + nbytes])
            pos += span
        return out

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        # Versions only advance on writes, so every line's decrypt pad is
        # known up front and the whole group's keystream comes from one
        # batched call.  The per-line sequencing — bus read, pad-cache
        # timing, events, pad-ahead — is unchanged and in order, so the
        # pad-cache hit/miss stats evolve exactly as under scalar fills.
        if not self.functional:
            return super().fill_lines(port, addrs, line_size)
        pads = self._pads_bulk(addrs, line_size)
        out: List[Tuple[bytes, int]] = []
        for addr, pad in zip(addrs, pads):
            # Each line is its own group fill: its pad-ahead must land
            # before the next line's pad-cache lookup.
            out += self._fill_batch(port, (addr,), line_size,
                                    lambda ct, pad=pad: xor_bytes(ct, pad))
            for i in range(1, self.pad_ahead_depth + 1):
                self._cache_pad(addr + i * line_size)
        return out

    def write_partial(self, port: MemoryPort, addr: int, data: bytes,
                      line_size: int) -> int:
        if self.reuse_pad_on_partial_write:
            # INSECURE shortcut: patch the bytes under the existing pad (no
            # version bump, no read-modify-write).  Two writes to the same
            # bytes leak their XOR; kept only as a measurable design mistake.
            self.stats.blocks_processed += self._pad_blocks(len(data))
            self._emit("encipher", addr, len(data), "pad-reuse")
            ciphertext = (
                xor_bytes(data, self._pad(addr, len(data)))
                if self.functional else data
            )
            return 1 + port.write(addr, ciphertext)

        if addr % line_size == 0 and len(data) % line_size == 0:
            return self.write_line(port, addr, data)

        # Secure partial write: the fresh version re-keys the whole line, so
        # the untouched bytes must be re-enciphered too — a full-line
        # read-modify-write despite the byte-granular cipher.
        start = addr - addr % line_size
        end = -(-(addr + len(data)) // line_size) * line_size
        self.stats.rmw_operations += 1
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
        new_ct = (
            self.encrypt_line(start, bytes(block)) if self.functional
            else bytes(block)
        )
        return read_cycles + dec_extra + enc_extra + port.write(start, new_ct)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_sram("pad-cache", self.pad_cache_lines * self.line_size)
        est.add_sram("version-table", 4 * 4096)
        est.add_block("control_overhead")
        return est

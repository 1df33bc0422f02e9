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
from typing import Dict, List, Sequence, Tuple

from ..crypto.kernels import aes_kernel, ctr_pads
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import PipelinedUnit, XOM_AES_PIPE
from .engine import BusEncryptionEngine, MemoryPort

__all__ = ["StreamCipherEngine"]


def _counter_block(prefix: bytes, block_addr: int) -> bytes:
    """CTR block: the pad tag and line version, then the block index."""
    return prefix + (block_addr // 16).to_bytes(8, "big")


class StreamCipherEngine(BusEncryptionEngine):
    """Seekable-keystream engine with an on-chip pad cache."""

    name = "stream-ctr"
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
        # Pad cache: the line addresses whose pads sit on chip (LRU).  Only
        # membership is modelled: it sets a fill's timing, and a fill's
        # bytes come from decrypt_lines' own keystream call either way.
        self._pad_cache: "OrderedDict[int, None]" = OrderedDict()
        # Per-line write version, mixed into the keystream tweak.
        self._versions: Dict[int, int] = {}

    # -- keystream -----------------------------------------------------------

    def _pads(self, spans: Sequence[Tuple[int, int, int]]) -> List[bytes]:
        """Keystreams of ``(addr, nbytes, version)`` spans in one call."""
        return ctr_pads(
            self._aes,
            [(addr, nbytes, b"pad!" + version.to_bytes(4, "big"))
             for addr, nbytes, version in spans],
            _counter_block,
        )

    def _pad(self, addr: int, nbytes: int) -> bytes:
        """Keystream for [addr, addr+nbytes) at the line's current version."""
        version = self._versions.get(addr - addr % self.line_size, 0)
        return self._pads([(addr, nbytes, version)])[0]

    def _pad_blocks(self, nbytes: int) -> int:
        return -(-nbytes // 16)

    def _cache_pad(self, line_addr: int) -> None:
        if line_addr in self._pad_cache:
            self._pad_cache.move_to_end(line_addr)
            return
        self._pad_cache[line_addr] = None
        while len(self._pad_cache) > self.pad_cache_lines:
            self._pad_cache.popitem(last=False)

    # -- functional transform ------------------------------------------------

    def _bump_version(self, addr: int) -> int:
        """A (re)encryption is a write: advance the line's version,
        invalidating any cached pad for it; returns the new version."""
        line_addr = addr - addr % self.line_size
        version = self._versions.get(line_addr, 0) + 1
        self._versions[line_addr] = version
        self._pad_cache.pop(line_addr, None)
        return version

    def encrypt_lines(self, items):
        # Advance every line's version in item order, then produce the
        # whole keystream in one kernel call.
        pads = self._pads([(addr, len(line), self._bump_version(addr))
                           for addr, line in items])
        return [xor_bytes(line, pad) for (_, line), pad in zip(items, pads)]

    def decrypt_lines(self, items):
        # Versions only advance on writes, so a fill group's pads are all
        # known up front and come from one keystream call.
        pads = self._pads([
            (addr, len(ct),
             self._versions.get(addr - addr % self.line_size, 0))
            for addr, ct in items
        ])
        return [xor_bytes(ct, pad) for (_, ct), pad in zip(items, pads)]

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

    def read_extra_cycles_for(self, nbytes: int):
        # Per line, because the pad-ahead moves the pad cache between the
        # lines of a group: each line's lookup, then keystream for the
        # next sequential lines before the group's next line looks up.
        read_extra = self.read_extra_cycles

        def line_cost(addr: int, size: int, mem_cycles: int) -> int:
            extra = read_extra(addr, size, mem_cycles)
            for i in range(1, self.pad_ahead_depth + 1):
                self._cache_pad(addr + i * size)
            return extra
        return line_cost

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
        return self._rmw(port, addr, data, line_size)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_sram("pad-cache", self.pad_cache_lines * self.line_size)
        est.add_sram("version-table", 4 * 4096)
        est.add_block("control_overhead")
        return est

"""AEGIS-style per-cache-line AES-CBC engine ([14] in the survey).

AEGIS encrypts external memory with a pipelined AES (≈300,000 gates) in CBC
mode, but "the ciphering block chain corresponds to a cache block, thus
allowing random access to external memory (each cache block may be ciphered
in CBC mode separately)".  The initialization vector "is composed by the
block address and by a random vector; to thwart the birthday attack it is
possible to replace the random vector by a counter".

This engine reproduces all of that:

* CBC chained only within one cache line — any line is independently
  decryptable (random access preserved, unlike the General Instrument
  whole-region chain);
* IV = AES_K(address || vector), with ``iv_mode`` selecting a *random*
  vector (fresh randomness per write — collides at the birthday bound for
  narrow vectors, measured in E11) or a *counter* vector (collision free
  until wraparound);
* the fetched word "cannot be provided to the processor until an entire
  cache block is deciphered" — modeled as the CBC drain over the whole line
  plus one pipeline pass for the IV generation;
* the survey's ≈25% performance overhead emerges at the system level (E11).

The per-line vectors are metadata the real design stores/caches on chip;
here they live in an on-chip table whose SRAM cost appears in the area
estimate.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..crypto.drbg import DRBG
from ..crypto.kernels import aes_kernel
from ..crypto.modes import CBC, xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import AEGIS_AES_PIPE, PipelinedUnit
from .engine import BlockModeEngine, MemoryPort

__all__ = ["AegisEngine"]


class AegisEngine(BlockModeEngine):
    """Per-cache-line AES-CBC with address+vector IVs."""

    name = "aegis-aes-cbc"
    #: Confidentiality layer only; AEGIS's integrity story is the hash
    #: tree modelled separately (see "merkle-stream").
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        iv_mode: str = "counter",
        vector_bits: int = 32,
        rng: DRBG = None,
        unit: PipelinedUnit = AEGIS_AES_PIPE,
        functional: bool = True,
        tracked_lines: int = 4096,
        **kwargs,
    ):
        if iv_mode not in ("counter", "random"):
            raise ValueError(f"iv_mode must be 'counter' or 'random', got {iv_mode!r}")
        if not 1 <= vector_bits <= 64:
            raise ValueError(f"vector_bits must be in [1, 64], got {vector_bits}")
        super().__init__(unit=unit, cipher_block=16, functional=functional,
                         **kwargs)
        self._aes = aes_kernel(key)
        self._iv_aes = aes_kernel(bytes(b ^ 0x36 for b in key))
        self.iv_mode = iv_mode
        self.vector_bits = vector_bits
        self._rng = rng if rng is not None else DRBG(b"aegis-iv")
        self._vectors: Dict[int, int] = {}
        self._counter = 0
        self.tracked_lines = tracked_lines
        #: History of vectors issued, for the birthday-collision analysis.
        self.issued_vectors: list = []

    # -- IV management -----------------------------------------------------

    def _next_vector(self) -> int:
        if self.iv_mode == "counter":
            self._counter = (self._counter + 1) % (1 << self.vector_bits)
            vector = self._counter
        else:
            vector = self._rng.randbits(self.vector_bits)
        self.issued_vectors.append(vector)
        return vector

    def _iv(self, addr: int) -> bytes:
        vector = self._vectors.get(addr, 0)
        material = addr.to_bytes(8, "big") + vector.to_bytes(8, "big")
        return self._iv_aes.encrypt_block(material)

    # -- functional transform ------------------------------------------------

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        # A (re)encryption means the line is being written: fresh vector.
        self._vectors[addr] = self._next_vector()
        return CBC(self._aes, self._iv(addr)).encrypt(plaintext)

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        return CBC(self._aes, self._iv(addr)).decrypt(ciphertext)

    def encrypt_lines(self, items):
        # Install batch: lines are independent CBC chains, so encrypt
        # them transposed — all IVs in one kernel call, then one ECB
        # batch per block column, chaining column to column.  Vector
        # issue order matches the per-line loop exactly.
        widths = {len(line) for _, line in items}
        if not items or len(widths) != 1 or next(iter(widths)) % 16:
            return super().encrypt_lines(items)
        blocks_per_line = next(iter(widths)) // 16
        material = []
        for addr, _ in items:
            vector = self._next_vector()
            self._vectors[addr] = vector
            material.append(
                addr.to_bytes(8, "big") + vector.to_bytes(8, "big")
            )
        prev = self._iv_aes.encrypt_blocks(b"".join(material))
        cols = []
        for b in range(blocks_per_line):
            col = b"".join(
                line[b * 16: (b + 1) * 16] for _, line in items
            )
            prev = self._aes.encrypt_blocks(xor_bytes(col, prev))
            cols.append(prev)
        return [
            b"".join(col[i * 16: (i + 1) * 16] for col in cols)
            for i in range(len(items))
        ]

    # -- timing ---------------------------------------------------------------

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        # One pipeline pass to produce the IV, then the CBC decryption drain
        # (block i needs only ciphertext, so blocks pipeline behind the bus
        # beats); the processor waits for the whole line regardless.
        base = super().read_extra_cycles(addr, nbytes, mem_cycles)
        return self.unit.latency + base

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        # IV generation, then a *serial* CBC encryption chain: block i cannot
        # be issued before block i-1's ciphertext exists.
        nblocks = self._nblocks(nbytes)
        self.stats.blocks_processed += nblocks
        return self.unit.latency + nblocks * self.unit.latency

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        # The CBC chain is per line and decryption has no chain
        # dependency, so the group needs one batched IV derivation and
        # one batched block decryption; XOR with each line's
        # ``iv || ct[:-16]`` reproduces CBC.decrypt exactly.  Fills never
        # re-encrypt, so the vector table is stable across the group.
        if self.functional and line_size % 16:
            return super().fill_lines(port, addrs, line_size)

        def decrypt(ciphertext: bytes) -> bytes:
            ivs = self._iv_aes.encrypt_blocks(b"".join(
                addr.to_bytes(8, "big")
                + self._vectors.get(addr, 0).to_bytes(8, "big")
                for addr in addrs
            ))
            chains = b"".join([
                ivs[16 * i: 16 * (i + 1)]
                + ciphertext[i * line_size: (i + 1) * line_size - 16]
                for i in range(len(addrs))
            ])
            return xor_bytes(self._aes.decrypt_blocks(ciphertext), chains)

        return self._fill_batch(port, addrs, line_size, decrypt)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_block("counter_64")
        est.add_block("control_overhead")
        est.add_sram(
            "iv-vector-table",
            self.tracked_lines * (self.vector_bits // 8 or 1),
        )
        return est

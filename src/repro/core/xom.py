"""XOM-style pipelined-AES bus encryption engine ([13] in the survey).

The XOM project uses "a pipelined AES block cipher as cipher unit which
features a low latency of 14 cycles, while a throughput of one
encrypted/decrypted data per clock cycle is claimed".  Each 16-byte block is
enciphered independently in an address-tweaked ECB (XEX-style masking), so
any block can be fetched and deciphered with no chaining state — full random
access, at the cost of deterministic encryption per address (same plaintext
at the same address always yields the same ciphertext; AEGIS's IVs fix
that, see :mod:`repro.core.aegis`).

Experiment E10 uses this engine to make the survey's own caveat concrete:
"taking into account only the latency doesn't inform about the overall
system cost".
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..crypto.kernels import aes_kernel
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import XOM_AES_PIPE, PipelinedUnit
from .engine import BlockModeEngine, MemoryPort

__all__ = ["XomAesEngine"]


class XomAesEngine(BlockModeEngine):
    """Address-tweaked AES engine with XOM's published pipeline figures."""

    name = "xom-aes"
    #: Confidentiality only in this model (published XOM adds MACs — that
    #: composition is the registry's "integrity-xom").
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        unit: PipelinedUnit = XOM_AES_PIPE,
        functional: bool = True,
        **kwargs,
    ):
        super().__init__(unit=unit, cipher_block=16, functional=functional,
                         **kwargs)
        self._aes = aes_kernel(key)
        # Tweak mask key: independent schedule derived from the main key.
        self._tweak_aes = aes_kernel(bytes(b ^ 0x5C for b in key))

    def _mask(self, addr: int) -> bytes:
        """XEX mask for the block at byte address ``addr``."""
        return self._tweak_aes.encrypt_block(addr.to_bytes(16, "big"))

    def _masks(self, addr: int, nbytes: int) -> bytes:
        """Concatenated XEX masks for every 16-byte block of the line."""
        material = b"".join(
            (addr + i).to_bytes(16, "big") for i in range(0, nbytes, 16)
        )
        return self._tweak_aes.encrypt_blocks(material)

    def encrypt_line(self, addr: int, plaintext: bytes) -> bytes:
        masks = self._masks(addr, len(plaintext))
        return xor_bytes(
            self._aes.encrypt_blocks(xor_bytes(plaintext, masks)), masks
        )

    def decrypt_line(self, addr: int, ciphertext: bytes) -> bytes:
        masks = self._masks(addr, len(ciphertext))
        return xor_bytes(
            self._aes.decrypt_blocks(xor_bytes(ciphertext, masks)), masks
        )

    def encrypt_lines(self, items):
        # XEX is ECB over independent blocks: the whole install batch
        # enciphers in two kernel calls (masks, then blocks).
        if not items or any(len(line) % 16 for _, line in items):
            return super().encrypt_lines(items)
        material = b"".join(
            (addr + i).to_bytes(16, "big")
            for addr, line in items for i in range(0, len(line), 16)
        )
        masks = self._tweak_aes.encrypt_blocks(material)
        plain = b"".join(line for _, line in items)
        ct = xor_bytes(
            self._aes.encrypt_blocks(xor_bytes(plain, masks)), masks
        )
        return self._split_batch(ct, items)

    def fill_lines(self, port: MemoryPort, addrs: Sequence[int],
                   line_size: int) -> List[Tuple[bytes, int]]:
        # XEX masking is ECB over independent blocks, so the whole group
        # deciphers in two kernel calls (masks, then blocks) instead of
        # two per line.
        if self.functional and line_size % 16:
            return super().fill_lines(port, addrs, line_size)

        def decrypt(ciphertext: bytes) -> bytes:
            masks = self._tweak_aes.encrypt_blocks(b"".join(
                (addr + i).to_bytes(16, "big")
                for addr in addrs for i in range(0, line_size, 16)
            ))
            return xor_bytes(
                self._aes.decrypt_blocks(xor_bytes(ciphertext, masks)), masks
            )

        return self._fill_batch(port, addrs, line_size, decrypt)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_block("control_overhead")
        return est

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

from typing import Sequence, Tuple

from ..crypto.kernels import aes_kernel
from ..crypto.modes import xor_bytes
from ..sim.area import AreaEstimate
from ..sim.pipeline import XOM_AES_PIPE, PipelinedUnit
from .engine import BlockModeEngine

__all__ = ["XomAesEngine"]


class XomAesEngine(BlockModeEngine):
    """Address-tweaked AES engine with XOM's published pipeline figures."""

    name = "xom-aes"
    #: Confidentiality only in this model (published XOM adds MACs — that
    #: composition is the registry's "integrity-xom").
    detects = frozenset()
    #: The address mask and the pipeline timing are functions of the line
    #: alone, so spills may wait behind fills of other lines.
    line_independent = True

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

    def _masks(self, spans: Sequence[Tuple[int, int]]) -> bytes:
        """Concatenated XEX masks for every 16-byte block of the
        ``(addr, nbytes)`` spans, in one kernel call."""
        return self._tweak_aes.encrypt_blocks(b"".join(
            (addr + i).to_bytes(16, "big")
            for addr, nbytes in spans for i in range(0, nbytes, 16)
        ))

    # XEX is ECB over independent blocks: a whole install batch, write or
    # fill group enciphers in two kernel calls (masks, then blocks).

    def encrypt_lines(self, items):
        masks = self._masks([(addr, len(line)) for addr, line in items])
        plain = b"".join(line for _, line in items)
        ct = xor_bytes(
            self._aes.encrypt_blocks(xor_bytes(plain, masks)), masks
        )
        return self._split_batch(ct, items)

    def decrypt_lines(self, items):
        masks = self._masks([(addr, len(ct)) for addr, ct in items])
        ciphertext = b"".join(ct for _, ct in items)
        plain = xor_bytes(
            self._aes.decrypt_blocks(xor_bytes(ciphertext, masks)), masks
        )
        return self._split_batch(plain, items)

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("aes_pipelined")
        est.add_block("control_overhead")
        return est

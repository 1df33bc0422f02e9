"""Dallas Semiconductor bus-encryption microcontrollers (survey Figure 6).

Two generations, two security levels:

* :class:`DS5002FPEngine` — the old part: "ciphering by block of 8-bit
  instructions", i.e. each external byte is enciphered independently with an
  address-dependent transformation.  Fast (one table lookup per byte, no
  read-modify-write) but broken: an 8-bit block admits only 256 ciphertext
  values per address, which Markus Kuhn's Cipher Instruction Search attack
  enumerates (:mod:`repro.attacks.kuhn`, experiment E05).

* :class:`DS5240Engine` — the successor: "implements a ciphering based on a
  true DES or 3-DES block cipher ... the 8-bit based ciphering passes to
  64-bit based ciphering", which inflates the per-address search space from
  2^8 to 2^64 and adds block-granularity write penalties.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..crypto.feistel import SmallBlockCipher
from ..crypto.kernels import des_kernel, tdes_kernel
from ..sim.area import AreaEstimate
from ..sim.pipeline import BYTE_SUBST_UNIT, DES_ITERATIVE, PipelinedUnit
from .engine import BusEncryptionEngine, TweakedECBEngine

__all__ = ["DS5002FPEngine", "DS5240Engine"]


def _byte_addresses(spans: Sequence[Tuple[int, int]]) -> np.ndarray:
    """The address of every byte of the ``(addr, nbytes)`` spans, in order."""
    return np.concatenate([np.empty(0, dtype=np.uint64)] + [
        np.arange(addr, addr + nbytes, dtype=np.uint64)
        for addr, nbytes in spans
    ])


class DS5002FPEngine(BusEncryptionEngine):
    """Byte-granular address-dependent encryption (the broken generation)."""

    name = "ds5002fp"
    #: Confidentiality only — no verdict path (Kuhn's attack relies on
    #: exactly this: injected ciphertext always executes).
    detects = frozenset()

    def __init__(self, key: bytes, functional: bool = True):
        super().__init__(functional=functional)
        self.cipher = SmallBlockCipher(key)
        self.unit = BYTE_SUBST_UNIT

    # No state links one byte to the next, so a whole install batch, write
    # or fill group is one cipher call over its per-byte addresses.

    def encrypt_lines(self, items):
        ct = self.cipher.encrypt(
            _byte_addresses([(addr, len(line)) for addr, line in items]),
            b"".join(line for _, line in items),
        )
        return self._split_batch(ct, items)

    def decrypt_lines(self, items):
        pt = self.cipher.decrypt(
            _byte_addresses([(addr, len(ct)) for addr, ct in items]),
            b"".join(ct for _, ct in items),
        )
        return self._split_batch(pt, items)

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        # Byte substitution keeps pace with the bus; only the tiny unit
        # latency lands on the critical path.
        self.stats.blocks_processed += nbytes
        return self.unit.latency

    def write_extra_cycles(self, addr: int, nbytes: int) -> int:
        self.stats.blocks_processed += nbytes
        return self.unit.latency

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("byte_sbox", 2)        # encrypt + decrypt paths
        est.add_block("control_overhead")
        return est


class DS5240Engine(TweakedECBEngine):
    """64-bit DES (or 3DES) block encryption (the strengthened generation)."""

    name = "ds5240"
    #: Confidentiality only: wider blocks raise the injection cost but
    #: nothing rejects a forged block.
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        triple: bool = False,
        unit: PipelinedUnit = DES_ITERATIVE,
        functional: bool = True,
        **kwargs,
    ):
        super().__init__(tdes_kernel(key) if triple else des_kernel(key[:8]),
                         unit=unit, functional=functional, **kwargs)
        self.triple = triple

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("tdes_iterative" if self.triple else "des_iterative")
        est.add_block("control_overhead")
        return est

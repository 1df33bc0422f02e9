"""Best-style block cipher: keyed substitutions and byte transpositions.

Robert Best's crypto-microprocessor patents ([7][8][9] in the survey,
Figure 3) predate DES hardware being affordable on-die; his cipher is built
from "basic cryptographic functions such as mono and poly-alphabetic
substitutions and byte transpositions".  This module reconstructs that
design point:

* a keyed byte-substitution table (mono-alphabetic layer);
* an address-dependent table selection (poly-alphabetic layer — the same
  plaintext byte maps differently at different addresses);
* a keyed transposition of the bytes within the block.

It is deliberately *weaker* than a modern cipher: rounds are shallow and
diffusion is limited to the permutation, so the statistical tests in
:mod:`repro.analysis.security` can exhibit the gap to AES (experiment E06)
— which is the survey's point when it calls NIST-approved algorithms the
known route to "strong security".

The keyed tables are derived on first functional use, not at construction:
a timing-only engine never enciphers a byte, so it never pays for them.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Tuple

from .hmac import prf

__all__ = ["BestCipher"]


def _keyed_permutation(material: bytes, n: int) -> List[int]:
    """Fisher-Yates shuffle of range(n) driven by key material."""
    perm = list(range(n))
    # Consume two bytes of material per swap for an unbiased-enough index.
    idx = 0
    for i in range(n - 1, 0, -1):
        r = int.from_bytes(material[idx: idx + 2], "big") % (i + 1)
        idx += 2
        perm[i], perm[r] = perm[r], perm[i]
    return perm


class BestCipher:
    """Substitution/transposition block cipher over ``block_size`` bytes.

    ``num_alphabets`` substitution tables are derived from the key; the table
    used for byte ``i`` of the block at address ``addr`` is selected by
    ``(addr + i) % num_alphabets`` — the poly-alphabetic schedule of the
    patent.  A keyed byte transposition follows the substitution, and the
    pair is iterated ``rounds`` times.
    """

    def __init__(
        self,
        key: bytes,
        block_size: int = 8,
        num_alphabets: int = 16,
        rounds: int = 2,
    ):
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        if num_alphabets < 1:
            raise ValueError(f"num_alphabets must be >= 1, got {num_alphabets}")
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.block_size = block_size
        self.num_alphabets = num_alphabets
        self.rounds = rounds
        self._key = bytes(key)

    @cached_property
    def _tables(self) -> Tuple[List[List[int]], List[List[int]],
                               List[int], List[int]]:
        """(sboxes, inverse sboxes, permutation, inverse permutation)."""
        sboxes: List[List[int]] = []
        inv_sboxes: List[List[int]] = []
        for a in range(self.num_alphabets):
            material = prf(self._key, b"best-sbox", bytes([a % 256]),
                           out_len=1024)
            sbox = _keyed_permutation(material, 256)
            inv = [0] * 256
            for i, v in enumerate(sbox):
                inv[v] = i
            sboxes.append(sbox)
            inv_sboxes.append(inv)

        perm_material = prf(self._key, b"best-perm",
                            out_len=4 * self.block_size)
        perm = _keyed_permutation(perm_material, self.block_size)
        inv_perm = [0] * self.block_size
        for i, v in enumerate(perm):
            inv_perm[v] = i
        return sboxes, inv_sboxes, perm, inv_perm

    def _alphabet(self, addr: int, offset: int, rnd: int) -> int:
        return (addr + offset + rnd * 7) % self.num_alphabets

    def encrypt(self, addr: int, block: bytes) -> bytes:
        """Encrypt ``block`` located at byte address ``addr``."""
        if len(block) != self.block_size:
            raise ValueError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        sboxes, _, perm, _ = self._tables
        state = list(block)
        for rnd in range(self.rounds):
            state = [
                sboxes[self._alphabet(addr, i, rnd)][b]
                for i, b in enumerate(state)
            ]
            state = [state[perm[i]] for i in range(self.block_size)]
        return bytes(state)

    def decrypt(self, addr: int, block: bytes) -> bytes:
        """Invert :meth:`encrypt` for the block at ``addr``."""
        if len(block) != self.block_size:
            raise ValueError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        _, inv_sboxes, _, inv_perm = self._tables
        state = list(block)
        for rnd in range(self.rounds - 1, -1, -1):
            state = [state[inv_perm[i]] for i in range(self.block_size)]
            state = [
                inv_sboxes[self._alphabet(addr, i, rnd)][b]
                for i, b in enumerate(state)
            ]
        return bytes(state)

    # Mode-compatible interface with the address fixed at zero, used where a
    # generic BlockCipher is expected.

    def encrypt_block(self, block: bytes) -> bytes:
        return self.encrypt(0, block)

    def decrypt_block(self, block: bytes) -> bytes:
        return self.decrypt(0, block)

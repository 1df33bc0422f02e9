"""Block-cipher modes of operation: ECB, CBC, CTR, OFB, CFB.

Section 2.2 of the survey hinges on the properties these modes give a bus
encryption unit:

* **ECB** — "a same data will be ciphered to the same value", the mode's main
  weakness; demonstrated by :mod:`repro.attacks.ecb_analysis`.
* **CBC** — robust, but each block depends on the previous one, which defeats
  random access ("JUMP instructions"); the General Instrument engine (E08)
  chains the whole image, AEGIS (E11) chains only within one cache line.
* **CTR** — a block cipher turned stream cipher; the pad is *seekable* by
  block index, which is exactly what a pad-ahead bus engine needs (E02).

All modes operate on any object exposing ``block_size``/``encrypt_block``/
``decrypt_block``.  Production code hands them registry kernels
(:func:`~repro.crypto.kernels.aes_kernel`, ``des_kernel``, ``tdes_kernel``),
whose batched ``encrypt_blocks``/``decrypt_blocks`` the block-parallel
modes call once per message; any other cipher (the algebraic oracles, the
small Feistel ciphers...) runs block by block.
"""

from __future__ import annotations

from typing import List, Protocol

from . import kernels

__all__ = ["BlockCipher", "ECB", "CBC", "CTR", "OFB", "CFB", "xor_bytes"]


class BlockCipher(Protocol):
    """Structural interface every repro cipher implements."""

    block_size: int

    def encrypt_block(self, block: bytes) -> bytes: ...

    def decrypt_block(self, block: bytes) -> bytes: ...


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (
        int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    ).to_bytes(len(a), "big")


def _split_blocks(data: bytes, block_size: int) -> List[bytes]:
    if len(data) % block_size != 0:
        raise ValueError(
            f"data length {len(data)} is not a multiple of block size {block_size}"
        )
    return [data[i: i + block_size] for i in range(0, len(data), block_size)]


class ECB:
    """Electronic codebook: each block enciphered independently."""

    def __init__(self, cipher: BlockCipher):
        self.cipher = cipher
        self.block_size = cipher.block_size

    def encrypt(self, plaintext: bytes) -> bytes:
        _split_blocks(plaintext, self.block_size)
        return kernels.encrypt_blocks(self.cipher, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        _split_blocks(ciphertext, self.block_size)
        return kernels.decrypt_blocks(self.cipher, ciphertext)


class CBC:
    """Cipher block chaining: C_i = E(P_i xor C_{i-1}), C_0 = IV."""

    def __init__(self, cipher: BlockCipher, iv: bytes):
        if len(iv) != cipher.block_size:
            raise ValueError(
                f"IV must be {cipher.block_size} bytes, got {len(iv)}"
            )
        self.cipher = cipher
        self.block_size = cipher.block_size
        self.iv = iv

    def encrypt(self, plaintext: bytes) -> bytes:
        # The chain is inherently serial (C_i feeds C_{i+1}), so the whole
        # chain is one kernel call that keeps the chaining register inside
        # the kernel, as a hardware CBC core does.
        _split_blocks(plaintext, self.block_size)
        return kernels.encrypt_blocks(self.cipher, plaintext, iv=self.iv)

    def decrypt(self, ciphertext: bytes) -> bytes:
        # Decryption has no chain dependency: batch-decrypt every block,
        # then XOR with the shifted ciphertext in one pass.
        _split_blocks(ciphertext, self.block_size)
        if not ciphertext:
            return b""
        decrypted = kernels.decrypt_blocks(self.cipher, ciphertext)
        return xor_bytes(decrypted, self.iv + ciphertext[:-self.block_size])


class CTR:
    """Counter mode; the keystream is addressable by block index.

    The counter block is ``nonce || counter`` where the counter occupies the
    low ``counter_bytes`` bytes, big endian.  ``keystream_block(i)`` exposes
    random access, which the stream bus engines rely on.
    """

    def __init__(self, cipher: BlockCipher, nonce: bytes, counter_bytes: int = 4):
        if counter_bytes >= cipher.block_size:
            raise ValueError("counter must be narrower than the cipher block")
        if len(nonce) != cipher.block_size - counter_bytes:
            raise ValueError(
                f"nonce must be {cipher.block_size - counter_bytes} bytes, "
                f"got {len(nonce)}"
            )
        self.cipher = cipher
        self.block_size = cipher.block_size
        self.nonce = nonce
        self.counter_bytes = counter_bytes
        # Wrapping the counter would silently reuse keystream (or, worse,
        # bleed into the nonce field); refuse indices outside the space.
        self._counter_limit = 1 << (8 * counter_bytes)

    def _counter_block(self, index: int) -> bytes:
        if not 0 <= index < self._counter_limit:
            raise ValueError(
                f"counter block index {index} outside [0, "
                f"{self._counter_limit}): keystream would wrap"
            )
        return self.nonce + index.to_bytes(self.counter_bytes, "big")

    def keystream_block(self, index: int) -> bytes:
        """Return keystream block ``index`` (seekable — no chaining state)."""
        return self.cipher.encrypt_block(self._counter_block(index))

    def keystream(self, nbytes: int, start_block: int = 0) -> bytes:
        nblocks = -(-nbytes // self.block_size)
        counters = b"".join(
            self._counter_block(start_block + i) for i in range(nblocks)
        )
        return kernels.encrypt_blocks(self.cipher, counters)[:nbytes]

    def encrypt(self, plaintext: bytes, start_block: int = 0) -> bytes:
        return xor_bytes(plaintext, self.keystream(len(plaintext), start_block))

    # CTR decryption is encryption.
    decrypt = encrypt


class OFB:
    """Output feedback: keystream S_i = E(S_{i-1}), S_0 = IV."""

    def __init__(self, cipher: BlockCipher, iv: bytes):
        if len(iv) != cipher.block_size:
            raise ValueError(
                f"IV must be {cipher.block_size} bytes, got {len(iv)}"
            )
        self.cipher = cipher
        self.block_size = cipher.block_size
        self.iv = iv

    def keystream(self, nbytes: int) -> bytes:
        # The feedback loop is serial by construction: one block at a time.
        enc = self.cipher.encrypt_block
        state = self.iv
        out = []
        total = 0
        while total < nbytes:
            state = enc(state)
            out.append(state)
            total += len(state)
        return b"".join(out)[:nbytes]

    def encrypt(self, plaintext: bytes) -> bytes:
        return xor_bytes(plaintext, self.keystream(len(plaintext)))

    decrypt = encrypt


class CFB:
    """Full-block cipher feedback: C_i = P_i xor E(C_{i-1})."""

    def __init__(self, cipher: BlockCipher, iv: bytes):
        if len(iv) != cipher.block_size:
            raise ValueError(
                f"IV must be {cipher.block_size} bytes, got {len(iv)}"
            )
        self.cipher = cipher
        self.block_size = cipher.block_size
        self.iv = iv

    def encrypt(self, plaintext: bytes) -> bytes:
        enc = self.cipher.encrypt_block
        prev = self.iv
        out = []
        for block in _split_blocks(plaintext, self.block_size):
            prev = xor_bytes(block, enc(prev))
            out.append(prev)
        return b"".join(out)

    def decrypt(self, ciphertext: bytes) -> bytes:
        # Each pad block is E(C_{i-1}), all known up front: batch-encrypt
        # the shifted ciphertext and XOR in one pass.
        _split_blocks(ciphertext, self.block_size)
        if not ciphertext:
            return b""
        pads = kernels.encrypt_blocks(
            self.cipher, self.iv + ciphertext[:-self.block_size]
        )
        return xor_bytes(ciphertext, pads)

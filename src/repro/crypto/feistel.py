"""Generic small-block tweakable Feistel cipher.

The Dallas DS5002FP (survey Figure 6 and the Kuhn attack of Section 2.3)
enciphers external memory *byte by byte*, with the transformation depending
on the byte's address.  That is a tweakable 8-bit block cipher.  No standard
cipher has an 8-bit block, so this module provides a balanced Feistel network
with a configurable block width whose round keys are derived from
(key, tweak) through the HMAC-SHA256 PRF.

With ``block_bits=8`` this reproduces the DS5002FP's security level exactly:
whatever the key, an 8-bit block admits only 256 ciphertext values per
address, which is what Kuhn's cipher-instruction-search attack exploits
(E05).  With ``block_bits=64`` it stands in for the DS5240's DES-strength
successor when speed matters more than DES fidelity.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from .hmac import prf

__all__ = ["TweakableFeistel", "SmallBlockCipher"]

#: Address tweaks: one integer base address, or one address per byte.
Addresses = Union[int, np.ndarray]

# The array path works in fixed-width unsigned arrays, which wrap exactly
# like the scalar code's ``& 0xFF...FF`` masks.  Its constants are typed
# so array-by-constant arithmetic stays unsigned; it never does
# scalar-on-scalar numpy arithmetic, which warns on overflow.
_U64 = np.uint64
_U32 = np.uint32


class TweakableFeistel:
    """Balanced Feistel network on ``block_bits`` bits with a tweak.

    ``block_bits`` must be even.  The round function is a keyed PRF lookup:
    round keys are expanded once per (key, tweak) pair and cached, so
    enciphering many bytes at the same address is cheap.
    """

    def __init__(self, key: bytes, block_bits: int = 8, rounds: int = 8):
        if block_bits % 2 != 0 or block_bits < 2:
            raise ValueError(f"block_bits must be even and >= 2, got {block_bits}")
        if rounds < 2:
            raise ValueError(f"rounds must be >= 2, got {rounds}")
        self.key = key
        self.block_bits = block_bits
        self.half_bits = block_bits // 2
        self.rounds = rounds
        self.block_size = max(1, block_bits // 8)
        self._half_mask = (1 << self.half_bits) - 1
        # Per-key base round keys derived once through the PRF; per-tweak
        # round keys are a cheap keyed integer mix of these (byte-granular
        # engines derive keys for every address, so this path must be fast).
        material = prf(key, b"feistel-base", out_len=8 * rounds)
        self._base_keys = [
            int.from_bytes(material[8 * i: 8 * i + 8], "big")
            for i in range(rounds)
        ]
        self._round_key_cache: dict = {}

    @staticmethod
    def _mix64(x: int) -> int:
        """splitmix64 finalizer: fast, well-distributed 64-bit mixing."""
        x &= 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
        return x ^ (x >> 31)

    def _round_keys(self, tweak: int) -> List[int]:
        cached = self._round_key_cache.get(tweak)
        if cached is not None:
            return cached
        keys = [
            self._mix64(base ^ (tweak * 0x9E3779B97F4A7C15)) & 0xFFFFFFFF
            for base in self._base_keys
        ]
        # Bound the cache: bus traces touch many addresses.
        if len(self._round_key_cache) < 1 << 17:
            self._round_key_cache[tweak] = keys
        return keys

    def _round_function(self, half: int, round_key: int) -> int:
        # A small keyed mixing function; need not be cryptographically deep
        # for the model, only key- and tweak-dependent and nonlinear.
        x = (half ^ round_key) & 0xFFFFFFFF
        x = (x * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFFFFFF
        x ^= x >> 15
        x = (x * 0x85EBCA77) & 0xFFFFFFFF
        x ^= x >> 13
        return x & self._half_mask

    def _round_keys_array(self, tweaks: np.ndarray) -> np.ndarray:
        """Every round key for every tweak, shape (rounds, n): the values
        of :meth:`_round_keys`, computed at once and never cached."""
        mixed = tweaks.astype(_U64) * _U64(0x9E3779B97F4A7C15)
        x = np.array(self._base_keys, dtype=_U64)[:, None] ^ mixed
        x ^= x >> _U64(30)
        x *= _U64(0xBF58476D1CE4E5B9)
        x ^= x >> _U64(27)
        x *= _U64(0x94D049BB133111EB)
        x ^= x >> _U64(31)
        return x.astype(_U32)

    def _round_function_array(self, half: np.ndarray,
                              round_key: np.ndarray) -> np.ndarray:
        x = half ^ round_key
        x *= _U32(0x9E3779B1)
        x += _U32(0x7F4A7C15)
        x ^= x >> _U32(15)
        x *= _U32(0x85EBCA77)
        x ^= x >> _U32(13)
        x &= _U32(self._half_mask)
        return x

    def _crypt_array(self, values: np.ndarray, tweaks: np.ndarray,
                     decrypt: bool) -> np.ndarray:
        """Encipher (or decipher) ``values[i]`` under ``tweaks[i]`` for every
        i in one pass: :meth:`encrypt_int`/:meth:`decrypt_int` element-wise.
        Returns uint64; blocks are at most 64 bits (halves fit uint32)."""
        if self.block_bits > 64:
            raise ValueError(
                f"array path needs block_bits <= 64, got {self.block_bits}"
            )
        keys = self._round_keys_array(np.asarray(tweaks))
        values = np.asarray(values, dtype=_U64)
        shift = _U64(self.half_bits)
        mask = _U64(self._half_mask)
        high = ((values >> shift) & mask).astype(_U32)
        low = (values & mask).astype(_U32)
        if decrypt:
            # decrypt_int: right is the high half, left the low half.
            right, left = high, low
            for rk in keys[::-1]:
                left, right = right ^ self._round_function_array(left, rk), left
            return (left.astype(_U64) << shift) | right
        left, right = high, low
        for rk in keys:
            left, right = right, left ^ self._round_function_array(right, rk)
        return (right.astype(_U64) << shift) | left

    def encrypt_int(self, value: int, tweak: int = 0) -> int:
        """Encrypt an integer of ``block_bits`` bits under ``tweak``."""
        keys = self._round_keys(tweak)
        left = (value >> self.half_bits) & self._half_mask
        right = value & self._half_mask
        for rk in keys:
            left, right = right, left ^ self._round_function(right, rk)
        return (right << self.half_bits) | left

    def decrypt_int(self, value: int, tweak: int = 0) -> int:
        """Invert :meth:`encrypt_int`."""
        keys = self._round_keys(tweak)
        right = (value >> self.half_bits) & self._half_mask
        left = value & self._half_mask
        for rk in reversed(keys):
            left, right = right ^ self._round_function(left, rk), left
        return (left << self.half_bits) | right

    # Byte-oriented interface for mode compatibility (tweak fixed to 0).

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.block_size:
            raise ValueError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        value = self.encrypt_int(int.from_bytes(block, "big"))
        return value.to_bytes(self.block_size, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != self.block_size:
            raise ValueError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        value = self.decrypt_int(int.from_bytes(block, "big"))
        return value.to_bytes(self.block_size, "big")


class SmallBlockCipher:
    """Address-tweaked byte cipher in the DS5002FP style.

    ``encrypt_byte(addr, b)`` enciphers ``b`` with the address as tweak, so a
    given plaintext byte maps to a fixed ciphertext byte *per address* —
    which is both how the real part behaved and why 256-way exhaustive search
    per address breaks it.

    No state links one byte to the next, so :meth:`encrypt`/:meth:`decrypt`
    transform a whole buffer in one numpy pass; the scalar per-byte methods
    (used by the attacks, one value at a time) are its oracle.
    """

    def __init__(self, key: bytes, rounds: int = 8):
        self._feistel = TweakableFeistel(key, block_bits=8, rounds=rounds)

    def encrypt_byte(self, addr: int, value: int) -> int:
        if not 0 <= value <= 0xFF:
            raise ValueError(f"byte out of range: {value}")
        return self._feistel.encrypt_int(value, tweak=addr)

    def decrypt_byte(self, addr: int, value: int) -> int:
        if not 0 <= value <= 0xFF:
            raise ValueError(f"byte out of range: {value}")
        return self._feistel.decrypt_int(value, tweak=addr)

    def encrypt(self, base: Addresses, data: bytes) -> bytes:
        """Encipher ``data``: byte i sits at ``base + i``, or at ``base[i]``
        when ``base`` is an array of per-byte addresses."""
        return self._crypt(base, data, decrypt=False)

    def decrypt(self, base: Addresses, data: bytes) -> bytes:
        """Invert :meth:`encrypt`."""
        return self._crypt(base, data, decrypt=True)

    def _crypt(self, base: Addresses, data: bytes, decrypt: bool) -> bytes:
        values = np.frombuffer(data, dtype=np.uint8)
        if isinstance(base, np.ndarray):
            if len(base) != len(values):
                raise ValueError(
                    f"{len(base)} addresses for {len(values)} bytes"
                )
            tweaks = base
        else:
            tweaks = np.arange(len(values), dtype=_U64) + _U64(base)
        out = self._feistel._crypt_array(values, tweaks, decrypt)
        return out.astype(np.uint8).tobytes()

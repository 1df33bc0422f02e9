"""Tweakable Feistel / DS5002FP-style byte cipher: bijectivity, tweak
separation, and the structural properties the Kuhn attack exploits."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import SmallBlockCipher, TweakableFeistel


class TestTweakableFeistel:
    def test_roundtrip_8bit(self):
        cipher = TweakableFeistel(b"key", block_bits=8)
        for v in range(256):
            assert cipher.decrypt_int(cipher.encrypt_int(v, 7), 7) == v

    def test_roundtrip_64bit(self):
        cipher = TweakableFeistel(b"key", block_bits=64)
        for v in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
            assert cipher.decrypt_int(cipher.encrypt_int(v, 3), 3) == v

    def test_is_bijection_per_tweak(self):
        cipher = TweakableFeistel(b"key", block_bits=8)
        images = {cipher.encrypt_int(v, 42) for v in range(256)}
        assert len(images) == 256

    def test_tweak_changes_mapping(self):
        """The DS5002FP property: same byte, different address, different
        ciphertext."""
        cipher = TweakableFeistel(b"key", block_bits=8)
        maps = [
            tuple(cipher.encrypt_int(v, t) for v in range(16))
            for t in range(8)
        ]
        assert len(set(maps)) == 8

    def test_key_changes_mapping(self):
        a = TweakableFeistel(b"key-a", block_bits=8)
        b = TweakableFeistel(b"key-b", block_bits=8)
        assert any(
            a.encrypt_int(v, 0) != b.encrypt_int(v, 0) for v in range(256)
        )

    def test_block_bytes_interface(self):
        cipher = TweakableFeistel(b"key", block_bits=64)
        block = b"8 bytes!"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_odd_block_bits_rejected(self):
        with pytest.raises(ValueError):
            TweakableFeistel(b"key", block_bits=7)

    def test_too_few_rounds_rejected(self):
        with pytest.raises(ValueError):
            TweakableFeistel(b"key", rounds=1)

    def test_bad_block_length(self):
        with pytest.raises(ValueError):
            TweakableFeistel(b"key", block_bits=64).encrypt_block(b"short")

    def test_64bit_diffusion(self):
        """One flipped input bit flips ~half the output (why the DS5240
        resists byte-at-a-time search)."""
        cipher = TweakableFeistel(b"key", block_bits=64)
        base = cipher.encrypt_int(0x0123456789ABCDEF, 0)
        flipped = cipher.encrypt_int(0x0123456789ABCDEE, 0)
        diff = bin(base ^ flipped).count("1")
        assert 16 <= diff <= 48


class TestSmallBlockCipher:
    def test_roundtrip_bytes(self):
        cipher = SmallBlockCipher(b"dallas")
        data = bytes(range(64))
        assert cipher.decrypt(0x100, cipher.encrypt(0x100, data)) == data

    def test_per_address_independence(self):
        """Each byte depends only on its own address — the attack's
        foothold."""
        cipher = SmallBlockCipher(b"dallas")
        whole = cipher.encrypt(0, bytes(range(16)))
        for i in range(16):
            assert cipher.encrypt_byte(i, i) == whole[i]

    def test_only_256_ciphertexts_per_address(self):
        cipher = SmallBlockCipher(b"dallas")
        images = {cipher.encrypt_byte(5, v) for v in range(256)}
        assert len(images) == 256  # a permutation of the byte space

    def test_byte_range_validation(self):
        cipher = SmallBlockCipher(b"dallas")
        with pytest.raises(ValueError):
            cipher.encrypt_byte(0, 256)
        with pytest.raises(ValueError):
            cipher.decrypt_byte(0, -1)

    def test_address_changes_encryption(self):
        cipher = SmallBlockCipher(b"dallas")
        encs = {cipher.encrypt_byte(addr, 0x42) for addr in range(64)}
        assert len(encs) > 32  # overwhelmingly distinct across addresses


class TestArrayPath:
    """The one-pass numpy path of encrypt/decrypt against the scalar
    per-byte oracle, over random keys and addresses where the tweak
    arithmetic wraps."""

    #: Ranges at 0, across 2^32, and near 2^40, where
    #: tweak * 0x9E3779B97F4A7C15 wraps 2^64 many times over.
    BASES = [0, (1 << 32) - 37, (1 << 40) - 5, (1 << 40) + 12345]

    @staticmethod
    def _random_cipher(rng):
        return SmallBlockCipher(bytes(rng.randrange(256) for _ in range(16)))

    @staticmethod
    def _per_byte(crypt, addrs, data):
        return bytes(crypt(addr, value) for addr, value in zip(addrs, data))

    @pytest.mark.parametrize("base", BASES)
    def test_contiguous_range_matches_per_byte(self, base):
        rng = random.Random(base)
        for _ in range(3):
            cipher = self._random_cipher(rng)
            data = bytes(rng.randrange(256) for _ in range(97))
            addrs = range(base, base + len(data))
            ct = cipher.encrypt(base, data)
            assert ct == self._per_byte(cipher.encrypt_byte, addrs, data)
            assert cipher.decrypt(base, data) == self._per_byte(
                cipher.decrypt_byte, addrs, data)
            assert cipher.decrypt(base, ct) == data

    def test_address_array_matches_per_byte(self):
        rng = random.Random(7)
        cipher = self._random_cipher(rng)
        # Non-contiguous, unsorted, repeated and wrapping-range addresses.
        addrs = [rng.choice(self.BASES) + rng.randrange(1 << 16)
                 for _ in range(200)] + [5, 5, 1 << 40]
        data = bytes(rng.randrange(256) for _ in range(len(addrs)))
        tweaks = np.array(addrs, dtype=np.uint64)
        ct = cipher.encrypt(tweaks, data)
        assert ct == self._per_byte(cipher.encrypt_byte, addrs, data)
        assert cipher.decrypt(tweaks, ct) == data

    def test_empty_input(self):
        cipher = SmallBlockCipher(b"k")
        assert cipher.encrypt(0x1234, b"") == b""
        assert cipher.decrypt(np.array([], dtype=np.uint64), b"") == b""

    def test_address_count_must_match(self):
        cipher = SmallBlockCipher(b"k")
        with pytest.raises(ValueError):
            cipher.encrypt(np.arange(3, dtype=np.uint64), b"four")

    def test_round_key_cache_untouched(self):
        cipher = SmallBlockCipher(b"k")
        ct = cipher.encrypt(0x400, bytes(range(256)))
        cipher.decrypt(np.arange(256, dtype=np.uint64) + np.uint64(0x400),
                       ct)
        assert cipher._feistel._round_key_cache == {}

    @pytest.mark.parametrize("bits", [2, 16, 32, 64])
    def test_wide_blocks_match_encrypt_int(self, bits):
        rng = random.Random(bits)
        cipher = TweakableFeistel(b"wide", block_bits=bits)
        values = [rng.randrange(1 << bits) for _ in range(50)]
        tweaks = [rng.randrange(1 << 63) for _ in range(50)]
        out = cipher._crypt_array(np.array(values, dtype=np.uint64),
                                  np.array(tweaks, dtype=np.uint64), False)
        assert [int(v) for v in out] == [
            cipher.encrypt_int(v, t) for v, t in zip(values, tweaks)
        ]
        back = cipher._crypt_array(out, np.array(tweaks, dtype=np.uint64),
                                   True)
        assert [int(v) for v in back] == values


@settings(max_examples=50, deadline=None)
@given(
    value=st.integers(min_value=0, max_value=(1 << 16) - 1),
    tweak=st.integers(min_value=0, max_value=1 << 32),
)
def test_feistel_roundtrip_property(value, tweak):
    cipher = TweakableFeistel(b"prop-key", block_bits=16)
    assert cipher.decrypt_int(cipher.encrypt_int(value, tweak), tweak) == value


@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=1, max_size=64),
       addr=st.integers(min_value=0, max_value=1 << 20))
def test_small_block_roundtrip_property(data, addr):
    cipher = SmallBlockCipher(b"prop-key")
    assert cipher.decrypt(addr, cipher.encrypt(addr, data)) == data


@settings(max_examples=30, deadline=None)
@given(data=st.binary(max_size=64),
       addr=st.integers(min_value=0, max_value=(1 << 48)),
       key=st.binary(min_size=1, max_size=24))
def test_small_block_array_matches_per_byte_property(data, addr, key):
    cipher = SmallBlockCipher(key)
    assert cipher.encrypt(addr, data) == bytes(
        cipher.encrypt_byte(addr + i, b) for i, b in enumerate(data)
    )
    assert cipher.decrypt(addr, data) == bytes(
        cipher.decrypt_byte(addr + i, b) for i, b in enumerate(data)
    )

"""Modes of operation: roundtrips, the survey's security/accessibility
properties (ECB determinism, CBC chaining, CTR seekability), errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    AES, CBC, CFB, CTR, DES, DRBG, ECB, OFB, TripleDES, xor_bytes,
)
from repro.crypto.kernels import (
    AESKernel, DESKernel, ReferenceKernel, TripleDESKernel,
)

KEY16 = b"0123456789abcdef"
IV16 = bytes(range(16))


def aes():
    return AES(KEY16)


class ReferenceOnly:
    """Cipher wrapper invisible to kernel dispatch.

    ``repro.crypto.kernels.kernel_for`` does not recognize it, so every
    mode falls back to the per-block reference path — which lets tests
    pin the kernel-accelerated path against the reference path.
    """

    def __init__(self, cipher):
        self.block_size = cipher.block_size
        self.encrypt_block = cipher.encrypt_block
        self.decrypt_block = cipher.decrypt_block


class TestXorBytes:
    def test_basic(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"

    def test_self_inverse(self):
        a, b = b"hello world!", b"secret pad!!"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")


class TestECB:
    def test_roundtrip(self):
        mode = ECB(aes())
        data = bytes(range(64))
        assert mode.decrypt(mode.encrypt(data)) == data

    def test_identical_blocks_leak(self):
        """§2.2: 'a same data will be ciphered to the same value'."""
        mode = ECB(aes())
        ct = mode.encrypt(b"A" * 16 + b"A" * 16)
        assert ct[:16] == ct[16:]

    def test_non_multiple_length_rejected(self):
        with pytest.raises(ValueError):
            ECB(aes()).encrypt(b"short")

    def test_works_with_des(self):
        mode = ECB(DES(b"8bytekey"))
        data = b"A" * 32
        assert mode.decrypt(mode.encrypt(data)) == data


class TestCBC:
    def test_roundtrip(self):
        data = bytes(range(96))
        ct = CBC(aes(), IV16).encrypt(data)
        assert CBC(aes(), IV16).decrypt(ct) == data

    def test_identical_blocks_hidden(self):
        """CBC breaks the ECB determinism leak."""
        ct = CBC(aes(), IV16).encrypt(b"A" * 32)
        assert ct[:16] != ct[16:]

    def test_iv_changes_ciphertext(self):
        data = b"B" * 32
        ct1 = CBC(aes(), IV16).encrypt(data)
        ct2 = CBC(aes(), bytes(16)).encrypt(data)
        assert ct1 != ct2

    def test_chaining_propagates_forward(self):
        """Changing plaintext block i changes all ciphertext blocks >= i."""
        base = bytearray(b"C" * 64)
        modified = bytearray(base)
        modified[16] ^= 1
        ct_base = CBC(aes(), IV16).encrypt(bytes(base))
        ct_mod = CBC(aes(), IV16).encrypt(bytes(modified))
        assert ct_base[:16] == ct_mod[:16]          # block 0 untouched
        assert ct_base[16:32] != ct_mod[16:32]      # block 1 changed
        assert ct_base[32:48] != ct_mod[32:48]      # block 2 changed too

    def test_decryption_is_random_access(self):
        """CBC *decryption* of block i needs only C_{i-1}, C_i."""
        data = bytes(range(80))
        ct = CBC(aes(), IV16).encrypt(data)
        # Decrypt only block 2 by hand using C_1 as the chain value.
        block2 = xor_bytes(aes().decrypt_block(ct[32:48]), ct[16:32])
        assert block2 == data[32:48]

    def test_bad_iv_length(self):
        with pytest.raises(ValueError):
            CBC(aes(), bytes(8))


class TestCTR:
    def test_roundtrip(self):
        ctr = CTR(aes(), nonce=bytes(12))
        data = b"stream cipher payload of odd length..."
        assert CTR(aes(), nonce=bytes(12)).decrypt(ctr.encrypt(data)) == data

    def test_seekable_keystream(self):
        """The property the pad-ahead bus engine needs: block i is
        computable without blocks 0..i-1."""
        ctr = CTR(aes(), nonce=bytes(12))
        ks = ctr.keystream(16 * 10)
        assert ctr.keystream_block(7) == ks[7 * 16: 8 * 16]

    def test_encrypt_from_offset(self):
        ctr = CTR(aes(), nonce=bytes(12))
        data = bytes(range(64))
        whole = ctr.encrypt(data)
        tail = ctr.encrypt(data[32:], start_block=2)
        assert tail == whole[32:]

    def test_different_nonce_different_stream(self):
        a = CTR(aes(), nonce=bytes(12)).keystream(32)
        b = CTR(aes(), nonce=b"x" * 12).keystream(32)
        assert a != b

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            CTR(aes(), nonce=bytes(5))

    def test_counter_width_validation(self):
        with pytest.raises(ValueError):
            CTR(aes(), nonce=bytes(16), counter_bytes=16)


class TestCTRWrap:
    """The counter must never wrap into the nonce (keystream reuse)."""

    def test_last_index_before_wrap_is_usable(self):
        ctr = CTR(aes(), nonce=bytes(15), counter_bytes=1)
        limit = 256  # 256 ** counter_bytes
        block = ctr.keystream_block(limit - 1)
        assert block == aes().encrypt_block(bytes(15) + b"\xff")

    def test_wrap_index_raises(self):
        ctr = CTR(aes(), nonce=bytes(15), counter_bytes=1)
        with pytest.raises(ValueError):
            ctr.keystream_block(256)  # 256 ** counter_bytes
        with pytest.raises(ValueError):
            ctr.keystream_block(-1)

    def test_default_width_boundary(self):
        ctr = CTR(aes(), nonce=bytes(12))  # counter_bytes=4
        assert len(ctr.keystream_block(256 ** 4 - 1)) == 16
        with pytest.raises(ValueError):
            ctr.keystream_block(256 ** 4)

    def test_keystream_crossing_the_limit_raises(self):
        ctr = CTR(aes(), nonce=bytes(15), counter_bytes=1)
        # 255 is fine, but a two-block read starting there would wrap.
        assert len(ctr.keystream(16, start_block=255)) == 16
        with pytest.raises(ValueError):
            ctr.keystream(17, start_block=255)
        with pytest.raises(ValueError):
            ctr.encrypt(bytes(32), start_block=255)


class TestOFBCFB:
    def test_ofb_roundtrip(self):
        data = b"output feedback mode stream bytes"
        ct = OFB(aes(), IV16).encrypt(data)
        assert OFB(aes(), IV16).decrypt(ct) == data

    def test_cfb_roundtrip(self):
        data = bytes(range(48))
        ct = CFB(aes(), IV16).encrypt(data)
        assert CFB(aes(), IV16).decrypt(ct) == data

    def test_cfb_first_block_matches_ofb(self):
        """Both start from E(IV), so block 0 ciphertexts coincide."""
        data = bytes(32)
        assert OFB(aes(), IV16).encrypt(data)[:16] == \
            CFB(aes(), IV16).encrypt(data)[:16]

    def test_ofb_bad_iv(self):
        with pytest.raises(ValueError):
            OFB(aes(), bytes(1))

    def test_cfb_bad_iv(self):
        with pytest.raises(ValueError):
            CFB(aes(), bytes(1))


class TestModeEquivalences:
    def test_all_modes_agree_on_single_block_with_zero_history(self):
        """ECB and CBC-with-zero-IV coincide on one block."""
        block = b"D" * 16
        assert ECB(aes()).encrypt(block) == \
            CBC(aes(), bytes(16)).encrypt(block)


@settings(max_examples=25, deadline=None)
@given(data=st.binary(min_size=0, max_size=128))
def test_ctr_roundtrip_property(data):
    ctr_enc = CTR(aes(), nonce=bytes(12))
    ctr_dec = CTR(aes(), nonce=bytes(12))
    assert ctr_dec.decrypt(ctr_enc.encrypt(data)) == data


@settings(max_examples=25, deadline=None)
@given(blocks=st.integers(min_value=1, max_value=6), seed=st.integers(0, 255))
def test_cbc_roundtrip_property(blocks, seed):
    data = bytes((seed + i) & 0xFF for i in range(16 * blocks))
    ct = CBC(aes(), IV16).encrypt(data)
    assert CBC(aes(), IV16).decrypt(ct) == data


# -- kernel path vs reference path at awkward lengths ------------------------
#
# The modes route AES/DES/3DES through repro.crypto.kernels; wrapping the
# cipher in ReferenceOnly forces the original per-block path.  Both paths
# must agree bit-for-bit, including at zero length, a single byte, and
# lengths that are not block multiples.

ODD_LENGTH_DATA = st.binary(min_size=0, max_size=100)


@settings(max_examples=30, deadline=None)
@given(data=ODD_LENGTH_DATA)
def test_ctr_kernel_path_matches_reference(data):
    ct = CTR(aes(), nonce=bytes(12)).encrypt(data)
    assert CTR(ReferenceOnly(aes()), nonce=bytes(12)).encrypt(data) == ct
    assert CTR(aes(), nonce=bytes(12)).decrypt(ct) == data
    assert CTR(ReferenceOnly(aes()), nonce=bytes(12)).decrypt(ct) == data


@settings(max_examples=30, deadline=None)
@given(data=ODD_LENGTH_DATA)
def test_ofb_kernel_path_matches_reference(data):
    ct = OFB(aes(), IV16).encrypt(data)
    assert OFB(ReferenceOnly(aes()), IV16).encrypt(data) == ct
    assert OFB(aes(), IV16).decrypt(ct) == data
    assert OFB(ReferenceOnly(aes()), IV16).decrypt(ct) == data


#: One cipher per kernel and key layout that a CBC chain can run on.
CBC_CIPHERS = {
    "aes-128": AES(KEY16),
    "aes-256": AES(bytes(range(32))),
    "des": DES(b"8bytekey"),
    "3des-8": TripleDES(b"8bytekey"),
    "3des-16": TripleDES(KEY16),
    "3des-24": TripleDES(bytes(range(24))),
}


@settings(max_examples=25, deadline=None)
@given(blocks=st.integers(min_value=0, max_value=6), seed=st.integers(0, 255))
def test_cbc_kernel_path_matches_reference(blocks, seed):
    for cipher in CBC_CIPHERS.values():
        size = cipher.block_size
        iv = bytes((seed * 7 + i) & 0xFF for i in range(size))
        data = bytes((seed + i) & 0xFF for i in range(size * blocks))
        ct = CBC(cipher, iv).encrypt(data)
        assert CBC(ReferenceOnly(cipher), iv).encrypt(data) == ct
        assert CBC(cipher, iv).decrypt(ct) == data
        assert CBC(ReferenceOnly(cipher), iv).decrypt(ct) == data


def _defined_chain(cipher, iv, data):
    """CBC as defined, C_i = E(P_i xor C_{i-1}), one reference block at a
    time."""
    size = cipher.block_size
    prev, out = iv, []
    for i in range(0, len(data), size):
        prev = cipher.encrypt_block(xor_bytes(data[i: i + size], prev))
        out.append(prev)
    return b"".join(out)


@pytest.mark.parametrize("name", list(CBC_CIPHERS))
def test_cbc_chain_matches_every_reference_path(name):
    """A chain is one kernel call at every width, on both sides of the
    numpy threshold; it must equal the per-block fallback chain and the
    ``ReferenceKernel`` chain."""
    cipher = CBC_CIPHERS[name]
    size = cipher.block_size
    rng = DRBG(f"cbc-chain-{name}".encode())
    for blocks in (0, 1, 5, 31, 32, 33, 128):
        iv = rng.random_bytes(size)
        data = rng.random_bytes(size * blocks)
        expected = _defined_chain(cipher, iv, data)
        assert CBC(cipher, iv).encrypt(data) == expected
        assert CBC(ReferenceOnly(cipher), iv).encrypt(data) == expected
        assert CBC(ReferenceKernel(cipher), iv).encrypt(data) == expected
        assert CBC(cipher, iv).decrypt(expected) == data


def test_cbc_encrypt_is_one_kernel_call_per_chain(monkeypatch):
    calls = []
    for cls in (AESKernel, DESKernel, TripleDESKernel):
        def counting(self, data, iv=None, real=cls.encrypt_blocks):
            calls.append((len(data), iv))
            return real(self, data, iv)
        monkeypatch.setattr(cls, "encrypt_blocks", counting)
    for cipher in CBC_CIPHERS.values():
        size = cipher.block_size
        iv = bytes(range(size))
        for blocks in (1, 5, 33):
            calls.clear()
            CBC(cipher, iv).encrypt(bytes(size * blocks))
            assert calls == [(size * blocks, iv)]


@settings(max_examples=25, deadline=None)
@given(blocks=st.integers(min_value=0, max_value=6), seed=st.integers(0, 255))
def test_cfb_kernel_path_matches_reference(blocks, seed):
    data = bytes((seed ^ i) & 0xFF for i in range(16 * blocks))
    ct = CFB(aes(), IV16).encrypt(data)
    assert CFB(ReferenceOnly(aes()), IV16).encrypt(data) == ct
    assert CFB(aes(), IV16).decrypt(ct) == data
    assert CFB(ReferenceOnly(aes()), IV16).decrypt(ct) == data


def test_stream_modes_handle_zero_and_single_byte():
    for data in (b"", b"x"):
        assert CTR(aes(), nonce=bytes(12)).decrypt(
            CTR(aes(), nonce=bytes(12)).encrypt(data)
        ) == data
        assert OFB(aes(), IV16).decrypt(OFB(aes(), IV16).encrypt(data)) == data
    # Block modes stay strict about ragged lengths on both paths.
    for cipher in (aes(), ReferenceOnly(aes())):
        with pytest.raises(ValueError):
            CBC(cipher, IV16).encrypt(b"x")
        with pytest.raises(ValueError):
            CBC(cipher, IV16).decrypt(b"x" * 17)

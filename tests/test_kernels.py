"""Equivalence layer for the cipher kernels (the tentpole's safety net).

The kernels in :mod:`repro.crypto.kernels` must be *bit-for-bit* equal to
the reference ciphers — the bench metrics are committed byte-identical and
every engine now routes through the fast path.  These tests pin that on
the published known answers (FIPS 197, SP 800-67) and on 1000 random
blocks per key size, and cover the registry/dispatch plumbing.
"""

import numpy as np
import pytest

from repro.crypto import AES, DES, DRBG, TripleDES
from repro.crypto.kernels import (
    AESKernel,
    DESKernel,
    TripleDESKernel,
    aes_kernel,
    ctr_pads,
    decrypt_blocks,
    des_kernel,
    encrypt_blocks,
    kernel_for,
    tdes_kernel,
)

# -- known answers (same vectors as test_known_answer.py) -------------------

AES_VECTORS = [
    # FIPS 197 Appendix B (AES-128), C.1, C.2, C.3.
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"),
    ("000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f"
     "101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"),
]

DES_VECTORS = [
    ("133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"),
    ("0123456789abcdef", "4e6f772069732074", "3fa40e8a984d4815"),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("key,plaintext,ciphertext", AES_VECTORS)
    def test_aes_fips_197(self, key, plaintext, ciphertext):
        kernel = AESKernel(bytes.fromhex(key))
        assert kernel.encrypt_block(bytes.fromhex(plaintext)).hex() \
            == ciphertext
        assert kernel.decrypt_block(bytes.fromhex(ciphertext)).hex() \
            == plaintext

    @pytest.mark.parametrize("key,plaintext,ciphertext", DES_VECTORS)
    def test_des_nbs(self, key, plaintext, ciphertext):
        kernel = DESKernel(bytes.fromhex(key))
        assert kernel.encrypt_block(bytes.fromhex(plaintext)).hex() \
            == ciphertext
        assert kernel.decrypt_block(bytes.fromhex(ciphertext)).hex() \
            == plaintext

    def test_3des_three_key_known_answer(self):
        # Karn's classic EDE3 vector (SP 800-67 keying option 1).
        key = bytes.fromhex(
            "0123456789abcdef23456789abcdef01456789abcdef0123"
        )
        plaintext = b"The qufck brown fox jump"
        expected = "a826fd8ce53b855fcce21c8112256fe668d5c05dd9b6b900"
        kernel = TripleDESKernel(key)
        assert kernel.encrypt_blocks(plaintext).hex() == expected
        assert kernel.decrypt_blocks(bytes.fromhex(expected)) == plaintext

    def test_3des_single_key_degenerates_to_des(self):
        # SP 800-67 keying option 3: K1=K2=K3 collapses EDE to one DES.
        key = bytes.fromhex("0123456789abcdef")
        block = bytes.fromhex("4e6f772069732074")
        assert TripleDESKernel(key).encrypt_block(block) \
            == DESKernel(key).encrypt_block(block)


# -- random-block equivalence vs the reference implementations --------------

RANDOM_BLOCKS = 1000

EQUIVALENCE_CASES = [
    ("aes-128", 16, AES, AESKernel),
    ("aes-192", 24, AES, AESKernel),
    ("aes-256", 32, AES, AESKernel),
    ("des-8", 8, DES, DESKernel),
    ("3des-8", 8, TripleDES, TripleDESKernel),
    ("3des-16", 16, TripleDES, TripleDESKernel),
    ("3des-24", 24, TripleDES, TripleDESKernel),
]


class TestRandomEquivalence:
    @pytest.mark.parametrize(
        "name,key_len,ref_cls,kernel_cls", EQUIVALENCE_CASES,
        ids=[case[0] for case in EQUIVALENCE_CASES],
    )
    def test_matches_reference(self, name, key_len, ref_cls, kernel_cls):
        rng = DRBG(f"kernels-{name}".encode())
        key = rng.random_bytes(key_len)
        ref = ref_cls(key)
        kernel = kernel_cls(key)
        size = ref.block_size
        data = rng.random_bytes(size * RANDOM_BLOCKS)
        expected = b"".join(
            ref.encrypt_block(data[i: i + size])
            for i in range(0, len(data), size)
        )
        assert kernel.encrypt_blocks(data) == expected
        assert kernel.decrypt_blocks(expected) == data
        # Narrow widths stay on the scalar loops (below NUMPY_MIN_BLOCKS_*).
        for width in (1, 5, 31):
            part = width * size
            assert kernel.encrypt_blocks(data[:part]) == expected[:part]
            assert kernel.decrypt_blocks(expected[:part]) == data[:part]

    def test_batch_equals_per_block(self):
        rng = DRBG(b"kernels-batch")
        kernel = AESKernel(rng.random_bytes(16))
        data = rng.random_bytes(16 * 32)
        assert kernel.encrypt_blocks(data) == b"".join(
            kernel.encrypt_block(data[i: i + 16])
            for i in range(0, len(data), 16)
        )

    def test_from_cipher_matches_fresh_kernel(self):
        rng = DRBG(b"kernels-from-cipher")
        for ref_cls, kernel_cls, key_len in (
            (AES, AESKernel, 16), (DES, DESKernel, 8),
            (TripleDES, TripleDESKernel, 24),
        ):
            key = rng.random_bytes(key_len)
            ref = ref_cls(key)
            block = rng.random_bytes(ref.block_size)
            assert kernel_cls.from_cipher(ref).encrypt_block(block) \
                == kernel_cls(key).encrypt_block(block)

    def test_rejects_ragged_lengths(self):
        kernel = AESKernel(bytes(16))
        with pytest.raises(ValueError):
            kernel.encrypt_blocks(b"\x00" * 17)
        with pytest.raises(ValueError):
            kernel.encrypt_block(b"\x00" * 8)
        with pytest.raises(ValueError):
            DESKernel(bytes(8)).encrypt_blocks(b"\x00" * 12)
        with pytest.raises(ValueError):
            TripleDESKernel(bytes(7))


# -- registry / dispatch ----------------------------------------------------

class TestRegistryAndDispatch:
    def test_registry_memoizes_by_key(self):
        key = bytes(range(16))
        assert aes_kernel(key) is aes_kernel(bytes(key))
        assert des_kernel(bytes(8)) is des_kernel(bytes(8))
        assert tdes_kernel(bytes(24)) is tdes_kernel(bytes(24))
        assert aes_kernel(key) is not aes_kernel(bytes(range(1, 17)))

    def test_kernel_for_reference_ciphers(self):
        rng = DRBG(b"kernels-dispatch")
        aes = AES(rng.random_bytes(16))
        kernel = kernel_for(aes)
        assert isinstance(kernel, AESKernel)
        # Memoized on the instance: same object on the second lookup.
        assert kernel_for(aes) is kernel
        # TripleDES must not dispatch to the single-DES kernel.
        assert isinstance(kernel_for(TripleDES(bytes(24))), TripleDESKernel)
        assert isinstance(kernel_for(DES(bytes(8))), DESKernel)

    def test_kernel_for_passthrough_and_unknown(self):
        kernel = aes_kernel(bytes(16))
        assert kernel_for(kernel) is kernel
        assert kernel_for(object()) is None

    def test_dispatch_falls_back_for_exotic_ciphers(self):
        class XorCipher:
            block_size = 4

            def encrypt_block(self, block):
                return bytes(b ^ 0x42 for b in block)

            def decrypt_block(self, block):
                return bytes(b ^ 0x42 for b in block)

        cipher = XorCipher()
        data = bytes(range(12))
        assert encrypt_blocks(cipher, data) \
            == bytes(b ^ 0x42 for b in data)
        assert decrypt_blocks(cipher, encrypt_blocks(cipher, data)) == data
        with pytest.raises(ValueError):
            encrypt_blocks(cipher, bytes(6))

    def test_ctr_pad_matches_per_block_construction(self):
        rng = DRBG(b"kernels-ctr-pad")
        kernel = aes_kernel(rng.random_bytes(16))

        def counter_block(tag, block_addr):
            return tag + (block_addr // 16).to_bytes(12, "big")

        def expected(addr, nbytes, tag):
            start = addr - addr % 16
            end = -(-(addr + nbytes) // 16) * 16
            return b"".join(
                kernel.encrypt_block(counter_block(tag, a))
                for a in range(start, end, 16)
            )[addr - start: addr - start + nbytes]

        # Unaligned start and length: the pad must slice correctly.
        one = (40, 100, b"tst!")
        assert ctr_pads(kernel, [one], counter_block) == [expected(*one)]
        assert len(ctr_pads(kernel, [(0, 1, b"tst!")], counter_block)[0]) == 1
        assert ctr_pads(kernel, [(0, 0, b"tst!")], counter_block) == [b""]
        assert ctr_pads(kernel, [], counter_block) == []
        # Several spans in one call, each cut at its own offset: mixed
        # tags, an empty span between two others, overlapping blocks.
        spans = [(40, 100, b"tst!"), (7, 0, b"two!"), (0x200, 32, b"two!"),
                 (41, 9, b"tst!"), (0x1003, 45, b"3rd!")]
        assert ctr_pads(kernel, spans, counter_block) == [
            expected(*span) for span in spans
        ]


# -- import-time equivalence check -------------------------------------------

from repro.crypto import kernels as kernels_mod


def test_equivalence_check_mismatch_raises_one_line(monkeypatch):
    """Array kernels that disagree with the scalar loops stop the import
    with one error line naming the numpy version — no fallback."""
    monkeypatch.setattr(kernels_mod, "_np_aes_crypt",
                        lambda kernel, data, encrypt: bytes(len(data)))
    with pytest.raises(RuntimeError) as excinfo:
        kernels_mod._check_array_kernels()
    message = str(excinfo.value)
    assert "\n" not in message
    assert f"numpy {np.__version__}" in message


# -- the smoke equivalence sweep (python -m repro.crypto.bench_kernels) ------

from repro.crypto import bench_kernels
from repro.crypto.feistel import SmallBlockCipher


def test_bench_equivalence_sweep_clean():
    assert bench_kernels.check_equivalence(4) == []


def test_bench_equivalence_catches_byte_cipher_mismatch(monkeypatch):
    """A byte-cipher array path that drifts from the per-byte oracle makes
    the sweep (and so ``make smoke``) fail."""
    real = SmallBlockCipher.encrypt

    def off_by_one(self, base, data):
        out = bytearray(real(self, base, data))
        out[-1] ^= 1
        return bytes(out)

    monkeypatch.setattr(SmallBlockCipher, "encrypt", off_by_one)
    failures = bench_kernels.check_equivalence(4)
    assert failures and all("feistel-8" in f for f in failures)
    assert bench_kernels.main(["--quick", "--check-blocks", "4"]) == 1


def test_bench_equivalence_catches_broken_cbc_chain(monkeypatch):
    """A DES-family chain that leaves the IP domain (here: the IV skips
    IP) makes the sweep, and so ``make smoke``, fail."""
    real = kernels_mod._des_crypt

    def iv_outside_ip(data, schedules, iv=None):
        if iv is None:
            return real(data, schedules)
        inverse_ip = kernels_mod._perm64(int.from_bytes(iv, "big"),
                                         kernels_mod._FP_TAB)
        return real(data, schedules, inverse_ip.to_bytes(8, "big"))

    monkeypatch.setattr(kernels_mod, "_des_crypt", iv_outside_ip)
    failures = bench_kernels.check_equivalence(4)
    assert sorted(failures) == [
        "3des-ede2: cbc chain mismatch", "3des-ede3: cbc chain mismatch",
        "des: cbc chain mismatch",
    ]

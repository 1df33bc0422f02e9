"""Equivalence layer for the cipher kernels (the tentpole's safety net).

The kernels in :mod:`repro.crypto.kernels` must be *bit-for-bit* equal to
the reference ciphers — the bench metrics are committed byte-identical and
every engine now routes through the fast path.  These tests pin that on
the published known answers (FIPS 197, SP 800-67) and on 1000 random
blocks per key size, and cover the registry/dispatch plumbing.
"""

import pickle

import numpy as np
import pytest

from repro.crypto import AES, DES, DRBG, TripleDES
from repro.crypto.modes import CBC
from repro.crypto import kernels as kernels_mod
from repro.crypto.kernels import (
    AESKernel,
    DESKernel,
    ReferenceKernel,
    TripleDESKernel,
    aes_kernel,
    ctr_pads,
    decrypt_blocks,
    des_kernel,
    encrypt_blocks,
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
        # Narrow widths stay on the narrow rung (below NUMPY_MIN_BLOCKS_*).
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


# -- AES at every width: the narrow rung, the switch, numpy -----------------

def _aes_widths():
    switch = kernels_mod.NUMPY_MIN_BLOCKS_AES
    return sorted({1, 2, 3, 5, 31, 32, 33, switch - 1, switch, switch + 1,
                   256})


class TestAESWidths:
    """Each width runs whole-batch rounds over one int, slabs of them, or
    numpy gathers; every one must give the reference bytes."""

    @pytest.mark.parametrize("key,plaintext,ciphertext", AES_VECTORS[1:],
                             ids=["C.1", "C.2", "C.3"])
    def test_fips_197_appendix_c(self, key, plaintext, ciphertext):
        kernel = AESKernel(bytes.fromhex(key))
        pt, ct = bytes.fromhex(plaintext), bytes.fromhex(ciphertext)
        for width in _aes_widths():
            assert kernel.encrypt_blocks(pt * width) == ct * width
            assert kernel.decrypt_blocks(ct * width) == pt * width

    @pytest.mark.parametrize("key_len", (16, 24, 32))
    def test_matches_reference_ciphers(self, key_len, reference_ciphers):
        rng = DRBG(b"kernels-widths-%d" % key_len)
        key, iv = rng.random_bytes(key_len), rng.random_bytes(16)
        widths = _aes_widths()
        data = rng.random_bytes(16 * max(widths))
        with reference_ciphers():
            ref = aes_kernel(key)
            ecb, plain = ref.encrypt_blocks(data), ref.decrypt_blocks(data)
            cbc = ref.encrypt_blocks(data, iv)
        assert isinstance(ref, ReferenceKernel)
        kernel = aes_kernel(key)
        for width in widths:
            part = 16 * width
            assert kernel.encrypt_blocks(data[:part]) == ecb[:part]
            assert kernel.decrypt_blocks(data[:part]) == plain[:part]
            # The first blocks of a CBC chain are the chain of those blocks.
            assert kernel.encrypt_blocks(data[:part], iv) == cbc[:part]

    def test_empty_and_ragged_input(self):
        kernel = AESKernel(bytes(16))
        assert kernel.encrypt_blocks(b"") == b""
        assert kernel.decrypt_blocks(b"") == b""
        assert kernel.encrypt_blocks(b"", bytes(16)) == b""
        wide = 16 * kernels_mod.NUMPY_MIN_BLOCKS_AES
        for size in (1, 15, 17, wide - 1, wide + 1):
            with pytest.raises(ValueError):
                kernel.encrypt_blocks(bytes(size))
            with pytest.raises(ValueError):
                kernel.decrypt_blocks(bytes(size))
            with pytest.raises(ValueError):
                kernel.encrypt_blocks(bytes(size), bytes(16))
        with pytest.raises(ValueError):
            kernel.encrypt_blocks(bytes(32), bytes(8))

    def test_pickled_kernel_encrypts_the_same_bytes(self):
        kernel = AESKernel(bytes(range(32)))
        fresh = pickle.dumps(kernel, pickle.HIGHEST_PROTOCOL)
        data = DRBG(b"kernels-pickle").random_bytes(16 * 600)
        iv = bytes(range(16))
        widths = (1, 2, 33, 600)
        expected = [(kernel.encrypt_blocks(data[:16 * w]),
                     kernel.decrypt_blocks(data[:16 * w]),
                     kernel.encrypt_blocks(data[:16 * w], iv))
                    for w in widths]
        # Lanes and numpy schedules built by use stay out of the pickle.
        used = pickle.dumps(kernel, pickle.HIGHEST_PROTOCOL)
        assert len(used) == len(fresh)
        clone = pickle.loads(used)
        assert clone is not kernel
        assert [(clone.encrypt_blocks(data[:16 * w]),
                 clone.decrypt_blocks(data[:16 * w]),
                 clone.encrypt_blocks(data[:16 * w], iv))
                for w in widths] == expected

    def test_width_state_stays_bounded(self):
        kernel = AESKernel(bytes(range(16)))
        for width in (1, 40, 200, kernels_mod.NUMPY_MIN_BLOCKS_AES - 1):
            kernel.encrypt_blocks(bytes(16 * width))
            kernel.decrypt_blocks(bytes(16 * width))
        assert all(max(cache) <= kernels_mod._SLAB_BLOCKS
                   for cache in kernel._by_width)


# -- DES and 3DES at every width, and chains in lockstep ---------------------

#: Both sides of the numpy switch at 10 blocks, and of the old one at 40.
DES_WIDTHS = (1, 5, 9, 10, 11, 19, 20, 21, 39, 40, 41, 256)

#: (name, key length, registry constructor, kernel class).
DES_CASES = [
    ("des", 8, des_kernel, DESKernel),
    ("3des-ede2", 16, tdes_kernel, TripleDESKernel),
    ("3des-ede3", 24, tdes_kernel, TripleDESKernel),
]


class TestDESWidths:
    """Each width runs the scalar table loop or the one-gather numpy
    round; both must give the reference bytes, in both directions."""

    @pytest.mark.parametrize("name,key_len,registry,kernel_cls", DES_CASES,
                             ids=[case[0] for case in DES_CASES])
    def test_matches_scalar_and_reference(self, name, key_len, registry,
                                          kernel_cls, reference_ciphers):
        rng = DRBG(b"kernels-des-widths-" + name.encode())
        key = rng.random_bytes(key_len)
        data = rng.random_bytes(8 * max(DES_WIDTHS))
        with reference_ciphers():
            ref = registry(key)
            ecb, plain = ref.encrypt_blocks(data), ref.decrypt_blocks(data)
        assert isinstance(ref, ReferenceKernel)
        kernel = kernel_cls(key)
        for width in DES_WIDTHS:
            part = data[:8 * width]
            want_ct, want_pt = ecb[:8 * width], plain[:8 * width]
            assert kernel.encrypt_blocks(part) == want_ct
            assert kernel.decrypt_blocks(part) == want_pt
            assert kernels_mod._des_crypt(part, kernel._enc) == want_ct
            assert kernels_mod._des_crypt(part, kernel._dec) == want_pt
            # The numpy rung forced at every width, the narrow ones too.
            assert kernels_mod._np_des_crypt(kernel, part) == want_ct
            assert kernels_mod._np_des_crypt(kernel, part,
                                             decrypt=True) == want_pt

    @pytest.mark.parametrize("count", (1, 2, 17, 64))
    @pytest.mark.parametrize("name,key_len,registry,kernel_cls", DES_CASES,
                             ids=[case[0] for case in DES_CASES])
    def test_units_match_per_unit_cbc(self, name, key_len, registry,
                                      kernel_cls, count, reference_ciphers):
        rng = DRBG(b"kernels-des-units-%s-%d" % (name.encode(), count))
        key, unit = rng.random_bytes(key_len), 32
        ivs = rng.random_bytes(8 * count)
        data = rng.random_bytes(unit * count)
        with reference_ciphers():
            ref = registry(key)
            expected = b"".join(
                CBC(ref, ivs[8 * i: 8 * i + 8]).encrypt(
                    data[unit * i: unit * (i + 1)]) for i in range(count))
            # The reference adapter runs one chain after another.
            assert ref.encrypt_units(ivs, data, unit) == expected
        kernel = kernel_cls(key)
        assert kernel.encrypt_units(ivs, data, unit) == expected
        # Lockstep forced at every count, below the switch too.
        assert kernels_mod._np_des_units(kernel, ivs, data, unit) \
            == expected

    def test_units_reject_ragged_input(self):
        kernel = TripleDESKernel(bytes(range(24)))
        for ivs, data, unit in ((bytes(8), bytes(12), 12),
                                (bytes(8), bytes(16), 0),
                                (bytes(12), bytes(16), 16),
                                (bytes(16), bytes(16), 16),
                                (bytes(8 * 12), bytes(16 * 11), 16)):
            with pytest.raises(ValueError):
                kernel.encrypt_units(ivs, data, unit)
        assert kernel.encrypt_units(b"", b"", 16) == b""

    def test_pickled_kernel_leaves_out_the_folded_keys(self):
        kernel = TripleDESKernel(bytes(range(24)))
        fresh = pickle.dumps(kernel, pickle.HIGHEST_PROTOCOL)
        data = DRBG(b"kernels-des-pickle").random_bytes(8 * 64)
        expected = (kernel.encrypt_blocks(data), kernel.decrypt_blocks(data))
        assert kernel._np_keys is not None
        used = pickle.dumps(kernel, pickle.HIGHEST_PROTOCOL)
        assert len(used) == len(fresh)
        clone = pickle.loads(used)
        assert clone._np_keys is None
        assert (clone.encrypt_blocks(data),
                clone.decrypt_blocks(data)) == expected


# -- registry / dispatch ----------------------------------------------------

class TestRegistryAndDispatch:
    def test_registry_memoizes_by_key(self):
        key = bytes(range(16))
        assert aes_kernel(key) is aes_kernel(bytes(key))
        assert des_kernel(bytes(8)) is des_kernel(bytes(8))
        assert tdes_kernel(bytes(24)) is tdes_kernel(bytes(24))
        assert aes_kernel(key) is not aes_kernel(bytes(range(1, 17)))

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


def test_equivalence_check_mismatch_raises_one_line(monkeypatch):
    """Array kernels that disagree with the narrow kernels stop the import
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


def test_bench_crossovers_time_both_rungs():
    rows, found = bench_kernels.crossovers(widths=(1, 2), repeats=1)
    assert [(r["cipher"], r["blocks"]) for r in rows] == [
        (name, w) for name in ("aes-128", "des", "3des") for w in (1, 2)]
    assert all(r["narrow_s"] > 0 and r["numpy_s"] > 0 for r in rows)
    assert set(found) == {"aes-128", "des", "3des"}


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

"""Best's substitution/transposition cipher: correctness and the
deliberate statistical weakness E06 measures."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import DRBG, BestCipher
from repro.attacks import analyze_ciphertext
from repro.core.registry import make_engine
from repro.sim import CacheConfig, SecureSystem
from repro.traces import iter_mixed_workload


class TestCorrectness:
    def test_roundtrip(self):
        cipher = BestCipher(b"best-key")
        block = b"8 bytes!"
        for addr in (0, 8, 0x1000, 12345 * 8):
            assert cipher.decrypt(addr, cipher.encrypt(addr, block)) == block

    def test_roundtrip_all_rounds(self):
        for rounds in (1, 2, 4):
            cipher = BestCipher(b"best-key", rounds=rounds)
            block = bytes(range(8))
            assert cipher.decrypt(64, cipher.encrypt(64, block)) == block

    def test_roundtrip_wide_block(self):
        cipher = BestCipher(b"best-key", block_size=16)
        block = bytes(range(16))
        assert cipher.decrypt(0, cipher.encrypt(0, block)) == block

    def test_block_cipher_interface(self):
        cipher = BestCipher(b"best-key")
        block = b"ABCDEFGH"
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_wrong_block_size_rejected(self):
        cipher = BestCipher(b"best-key")
        with pytest.raises(ValueError):
            cipher.encrypt(0, b"short")

    def test_known_answer(self):
        cipher = BestCipher(bytes(range(16)))
        assert cipher.encrypt(0x40, bytes(8)).hex() == "51a356e9c862957c"
        assert cipher.encrypt(0x47, b"ABCDEFGH").hex() == "c28914bff43cf537"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BestCipher(b"k", block_size=1)
        with pytest.raises(ValueError):
            BestCipher(b"k", num_alphabets=0)
        with pytest.raises(ValueError):
            BestCipher(b"k", rounds=0)


class TestLazySchedule:
    """The keyed tables are derived on first functional use only."""

    def test_timing_only_run_never_derives_tables(self):
        engine = make_engine("best", functional=False)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32,
                                     associativity=2),
        )
        report = system.run(list(iter_mixed_workload(200, DRBG(3))))
        assert report.cycles > 0
        assert "_tables" not in vars(engine.cipher)

    def test_pickled_before_first_use_enciphers_the_same(self):
        engine = make_engine("best")
        clone = pickle.loads(pickle.dumps(engine))
        assert "_tables" not in vars(clone.cipher)
        line = bytes(range(32))
        ciphertext = engine.encrypt_line(0x80, line)
        assert clone.encrypt_line(0x80, line) == ciphertext
        assert clone.decrypt_line(0x80, ciphertext) == line


class TestPolyAlphabetic:
    def test_address_dependence(self):
        """The poly-alphabetic schedule: same block, different address,
        different ciphertext."""
        cipher = BestCipher(b"best-key", num_alphabets=16)
        block = b"constant"
        cts = {cipher.encrypt(addr, block) for addr in range(0, 128, 8)}
        assert len(cts) > 1

    def test_alphabet_cycle(self):
        """Addresses congruent mod num_alphabets share the substitution
        schedule — the cipher's periodicity weakness."""
        cipher = BestCipher(b"best-key", num_alphabets=16)
        block = b"constant"
        assert cipher.encrypt(0, block) == cipher.encrypt(16, block)

    def test_mono_alphabetic_with_one_table(self):
        cipher = BestCipher(b"best-key", num_alphabets=1)
        block = b"constant"
        assert cipher.encrypt(0, block) == cipher.encrypt(8, block)


class TestWeakness:
    def test_statistically_weaker_than_random(self):
        """A highly repetitive image keeps visible structure under Best —
        the gap to NIST ciphers the survey calls out (E06)."""
        cipher = BestCipher(b"best-key", num_alphabets=4)
        image = (b"\x00" * 8 + b"\xff" * 8) * 256
        ct = bytearray()
        for i in range(0, len(image), 8):
            ct += cipher.encrypt(i, image[i: i + 8])
        analysis = analyze_ciphertext(bytes(ct), block_size=8)
        # Strong repetition survives: the distinguisher fires.
        assert analysis.block_collision_rate > 0.5

    def test_key_sensitivity(self):
        block = b"constant"
        assert BestCipher(b"key-a").encrypt(0, block) != \
            BestCipher(b"key-b").encrypt(0, block)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 255), addr=st.integers(0, 1 << 16))
def test_best_roundtrip_property(seed, addr):
    cipher = BestCipher(bytes([seed]) + b"-key")
    block = bytes((seed * 7 + i) & 0xFF for i in range(8))
    addr = addr - addr % 8
    assert cipher.decrypt(addr, cipher.encrypt(addr, block)) == block

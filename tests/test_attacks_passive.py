"""Passive attacks: bus probe, ECB analysis, known-plaintext dictionary."""

import pytest

from repro.attacks import (
    BusProbe,
    KnownPlaintextDictionary,
    analyze_ciphertext,
    ecb_distinguisher,
    matching_block_pairs,
)
from repro.crypto import AES, CBC, DRBG, ECB
from repro.sim import Bus


class TestBusProbe:
    def test_records_transactions(self):
        probe = BusProbe()
        bus = Bus(sink=probe)
        bus.transfer("read", 0x40, b"\x01\x02", 5)
        bus.transfer("write", 0x80, b"\x03", 6)
        assert len(probe.transactions) == 2
        assert probe.bytes_observed == 3

    def test_observed_bytes_filter(self):
        probe = BusProbe()
        bus = Bus(sink=probe)
        bus.transfer("read", 0, b"RR", 0)
        bus.transfer("write", 0, b"WW", 0)
        assert probe.observed_bytes("read") == b"RR"
        assert probe.observed_bytes("write") == b"WW"
        assert probe.observed_bytes() == b"RRWW"

    def test_reconstruct_memory_keeps_latest(self):
        probe = BusProbe()
        bus = Bus(sink=probe)
        bus.transfer("read", 0x40, b"old!", 0)
        bus.transfer("write", 0x40, b"new!", 1)
        assert probe.reconstruct_memory()[0x40] == b"new!"

    def test_address_histogram(self):
        probe = BusProbe()
        bus = Bus(sink=probe)
        for _ in range(3):
            bus.transfer("read", 0x100, b"x", 0)
        bus.transfer("read", 0x200, b"x", 0)
        hist = probe.address_histogram()
        assert hist[0x100] == 3 and hist[0x200] == 1

    def test_repeated_payloads(self):
        probe = BusProbe()
        bus = Bus(sink=probe)
        bus.transfer("read", 0, b"same", 0)
        bus.transfer("read", 64, b"same", 0)
        bus.transfer("read", 128, b"diff", 0)
        repeats = probe.repeated_payloads()
        assert repeats == {b"same": 2}

    def test_capacity_limit(self):
        probe = BusProbe(max_transactions=2)
        bus = Bus(sink=probe)
        for i in range(5):
            bus.transfer("read", i, b"x", 0)
        assert len(probe.transactions) == 2

    def test_clear(self):
        probe = BusProbe()
        Bus(sink=probe).transfer("read", 0, b"", 0)
        probe.clear()
        assert not probe.transactions


class TestECBAnalysis:
    @pytest.fixture(scope="class")
    def structured_image(self):
        # Code-like image with heavy 8-byte repetition.
        return (b"\x01\x02\x03\x04\x05\x06\x07\x08" * 4 + bytes(range(32))) * 32

    def test_ecb_leaks(self, structured_image):
        ct = ECB(AES(b"0123456789abcdef")).encrypt(
            structured_image[: len(structured_image) // 16 * 16]
        )
        assert ecb_distinguisher(ct, block_size=16)

    def test_cbc_does_not_leak(self, structured_image):
        ct = CBC(AES(b"0123456789abcdef"), bytes(16)).encrypt(
            structured_image[: len(structured_image) // 16 * 16]
        )
        assert not ecb_distinguisher(ct, block_size=16)

    def test_random_data_not_flagged(self):
        data = DRBG(1).random_bytes(8192)
        assert not ecb_distinguisher(data, block_size=8)

    def test_analysis_counts(self):
        data = b"ABCDEFGH" * 10
        analysis = analyze_ciphertext(data, block_size=8)
        assert analysis.total_blocks == 10
        assert analysis.distinct_blocks == 1
        assert analysis.block_collision_rate == pytest.approx(0.9)

    def test_looks_random_heuristic(self):
        random = DRBG(2).random_bytes(16384)
        assert analyze_ciphertext(random, 8).looks_random
        assert not analyze_ciphertext(b"\x00" * 16384, 8).looks_random

    def test_matching_pairs(self):
        data = b"AAAAAAAA" + b"BBBBBBBB" + b"AAAAAAAA"
        assert matching_block_pairs(data, 8) == [(0, 16)]


class TestKnownPlaintext:
    def test_learn_and_recover(self):
        d = KnownPlaintextDictionary(block_size=8)
        d.learn(0x100, b"libcfunc", b"CIPHERTX")
        assert d.recover(0x100, b"CIPHERTX") == b"libcfunc"
        assert d.recover(0x108, b"CIPHERTX") is None

    def test_address_free_dictionary_transfers(self):
        d = KnownPlaintextDictionary(block_size=8, address_tweaked=False)
        d.learn(0x100, b"libcfunc", b"CIPHERTX")
        assert d.recover(0x9999, b"CIPHERTX") == b"libcfunc"

    def test_recover_image_fraction(self):
        d = KnownPlaintextDictionary(block_size=8)
        plain = b"known-A!" + b"known-B!" + b"unknown!"
        cipher = b"ct-for-A" + b"ct-for-B" + b"ct-for-C"
        d.learn(0, plain[:16], cipher[:16])
        recovered, fraction = d.recover_image(0, cipher)
        assert fraction == pytest.approx(2 / 3)
        assert recovered[:16] == plain[:16]
        assert recovered[16:] == bytes(8)

    def test_length_mismatch(self):
        d = KnownPlaintextDictionary()
        with pytest.raises(ValueError):
            d.learn(0, b"abc", b"ab")

    def test_len(self):
        d = KnownPlaintextDictionary(block_size=8)
        d.learn(0, bytes(16), bytes(16))
        assert len(d) == 2

    def test_against_real_xom_engine(self):
        """XOM's deterministic address-tweaked ECB admits per-address
        dictionaries (noted in the taxonomy), though not cross-address."""
        from repro.core import XomAesEngine
        engine = XomAesEngine(b"0123456789abcdef")
        d = KnownPlaintextDictionary(block_size=16, address_tweaked=True)
        plain = bytes(range(32))
        ct = engine.encrypt_line(0x200, plain)
        d.learn(0x200, plain, ct)
        # The same line re-encrypted at the same address is recognized.
        again = engine.encrypt_line(0x200, plain)
        assert d.recover(0x200, again[:16]) == plain[:16]

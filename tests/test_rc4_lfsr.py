"""Stream generators: RC4 vectors, LFSR periods, combiner properties."""

import pytest

from repro.crypto import LFSR, AlternatingStepGenerator, GeffeGenerator, RC4
from repro.crypto.lfsr import MAXIMAL_TAPS
from repro.compression import shannon_entropy


class TestRC4:
    def test_wikipedia_vector_key(self):
        assert RC4(b"Key").process(b"Plaintext").hex().upper() == \
            "BBF316E8D940AF0AD3"

    def test_wikipedia_vector_wiki(self):
        assert RC4(b"Wiki").process(b"pedia").hex().upper() == \
            "1021BF0420"

    def test_wikipedia_vector_secret(self):
        assert RC4(b"Secret").process(b"Attack at dawn").hex().upper() == \
            "45A01F645FC35B383552544B9BF5"

    def test_symmetric(self):
        ct = RC4(b"key").process(b"message")
        assert RC4(b"key").process(ct) == b"message"

    def test_keystream_is_stateful(self):
        rc4 = RC4(b"key")
        a = rc4.keystream(16)
        b = rc4.keystream(16)
        assert a != b

    def test_keystream_matches_fresh_offset(self):
        rc4 = RC4(b"key")
        combined = rc4.keystream(32)
        fresh = RC4(b"key")
        assert fresh.keystream(16) == combined[:16]
        assert fresh.keystream(16) == combined[16:]

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            RC4(b"")

    def test_keystream_entropy(self):
        stream = RC4(b"entropy-test-key").keystream(4096)
        assert shannon_entropy(stream) > 7.5


class TestLFSR:
    def test_period_of_maximal_4bit(self):
        # x^4 + x^3 + 1 is maximal: period 2^4 - 1 = 15.
        lfsr = LFSR((4, 3), seed=1)
        assert lfsr.period() == 15

    def test_period_of_maximal_8bit(self):
        lfsr = LFSR(MAXIMAL_TAPS[8], seed=1)
        assert lfsr.period() == 255

    def test_period_of_maximal_16bit(self):
        lfsr = LFSR(MAXIMAL_TAPS[16], seed=0xACE1)
        assert lfsr.period() == 65535

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            LFSR((4, 3), seed=0)

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            LFSR((), seed=1)

    def test_deterministic(self):
        a = LFSR((16, 15, 13, 4), seed=0xBEEF).bits(64)
        b = LFSR((16, 15, 13, 4), seed=0xBEEF).bits(64)
        assert a == b

    def test_balanced_output(self):
        """Maximal LFSR output over a full period is nearly balanced."""
        bits = LFSR(MAXIMAL_TAPS[8], seed=1).bits(255)
        ones = sum(bits)
        assert ones == 128  # 2^(n-1) ones in a maximal sequence


class TestGeffe:
    def test_deterministic(self):
        a = GeffeGenerator(1, 2, 3).keystream(64)
        b = GeffeGenerator(1, 2, 3).keystream(64)
        assert a == b

    def test_seed_sensitivity(self):
        assert GeffeGenerator(1, 2, 3).keystream(64) != \
            GeffeGenerator(1, 2, 4).keystream(64)

    def test_correlation_weakness(self):
        """The Geffe output correlates ~75% with LFSR b — the textbook flaw.

        This is the quantitative gap between a cheap combiner and a proper
        cipher that §4's 'sufficiently random to be secure' worries about.
        """
        gen = GeffeGenerator(0x1ACE, 0x2BEEF, 0x3CAFE)
        shadow_b = LFSR(MAXIMAL_TAPS[23], 0x2BEEF)
        matches = 0
        n = 4000
        for _ in range(n):
            out = gen.step()
            # Keep the shadow register in lockstep with the real b.
            if shadow_b.step() == out:
                matches += 1
        assert 0.70 <= matches / n <= 0.80

    def test_keystream_entropy(self):
        stream = GeffeGenerator(11, 222, 3333).keystream(4096)
        assert shannon_entropy(stream) > 7.0


class TestAlternatingStep:
    def test_deterministic(self):
        a = AlternatingStepGenerator(5, 6, 7).keystream(64)
        b = AlternatingStepGenerator(5, 6, 7).keystream(64)
        assert a == b

    def test_differs_from_geffe(self):
        assert AlternatingStepGenerator(1, 2, 3).keystream(32) != \
            GeffeGenerator(1, 2, 3).keystream(32)

    def test_keystream_entropy(self):
        stream = AlternatingStepGenerator(11, 222, 3333).keystream(4096)
        assert shannon_entropy(stream) > 7.0


# -- word stepping: pins recorded with the one-bit-per-step generators -------

import hashlib

from repro.crypto import DRBG

_N = 10 ** 5
#: E15's and E17's Geffe taps.
_E_TAPS = ((9, 5), (10, 7), (11, 9))


def _sha(data):
    return hashlib.sha256(bytes(data)).hexdigest()


#: sha256 of bytes(LFSR(taps, seed).bits(10**5)) and the final state: the
#: E15/E17 tap sets (the correlation attack's registers), a longer
#: look-back, and a four-tap and a one-bit-look-back register.
_LFSR_PINS = [
    ((9, 5), 0x101, "606f3f1114d86c3e84daca78b47a349a"
                    "4fb5b7f2e8598e679d6dc9e0d35d9a0c", 342),
    ((10, 7), 0x202, "ee32078753220d021830990785f13746"
                     "3e4ac3d4e96de9590aab13c0bb6b5d5b", 405),
    ((11, 9), 0x303, "f3f39a472a58d8b03cabbf9f8990883e"
                     "fe147165c7027a16b2b602071bb1a823", 1931),
    ((17, 14), 0x1F3, "0f213033503b5971098603f7e1943277"
                      "1c81977748f42d44f03c797ecd54ae3f", 106075),
    ((16, 15, 13, 4), 0xACE1, "68d6220e1dd9c521a2d32b0d69dd24bd"
                              "4ad835ee1a2c6de1a7fba2e275d42983", 57312),
    ((32, 22, 2, 1), 0xDEADBEEF, "3e928be4a3d39b7987fb9a9592dab859"
                                 "c14b6bffd9a71522915638b74e49a105",
     1973446836),
]


@pytest.mark.parametrize("taps,seed,digest,state", _LFSR_PINS,
                         ids=[str(p[0]) for p in _LFSR_PINS])
def test_lfsr_bits_match_pins(taps, seed, digest, state):
    lfsr = LFSR(taps, seed)
    assert _sha(lfsr.bits(_N)) == digest
    assert lfsr.state == state


#: sha256 of keystream(10**5 // 8) and the registers' final states: E15's
#: and E17's Geffe seeds over their taps, the default maximal taps, and
#: E17's alternating step generator (still one bit per step).
_KEYSTREAM_PINS = {
    "geffe-e15": (
        lambda: GeffeGenerator(0x101, 0x202, 0x303, *_E_TAPS),
        "17c9ab543e925bc23ae072b72b77a5a7bd0cd8744c4343998b4c3a584c443c20",
        (342, 405, 1931)),
    "geffe-e17": (
        lambda: GeffeGenerator(0x1F3, 0x2A5, 0x3B7, *_E_TAPS),
        "55f1ef1cde83eb89a4a5964f73d81439de54e508f51f56527d76861394f8376b",
        (448, 374, 201)),
    "geffe-default-taps": (
        lambda: GeffeGenerator(0x1F3, 0x2A5, 0x3B7),
        "b3d90790e75633b8e312a901162b8526379407a8e3573e22f33e29353c9ebabe",
        (106075, 764265, 5826831)),
    "alternating-step-e17": (
        lambda: AlternatingStepGenerator(7, 77, 777),
        "c2c635110de85ea3c2c412bf7b6d1c025d42598c78f8d7871b41c7236f6772d9",
        (92024, 1489637, 8800904)),
}


def _registers(gen):
    names = ("control", "a", "b") \
        if isinstance(gen, AlternatingStepGenerator) else ("a", "b", "c")
    return tuple(getattr(gen, name).state for name in names)


@pytest.mark.parametrize("name", sorted(_KEYSTREAM_PINS))
def test_keystream_matches_pins(name):
    make, digest, states = _KEYSTREAM_PINS[name]
    gen = make()
    assert _sha(gen.keystream(_N // 8)) == digest
    assert _registers(gen) == states


class TestWordStepping:
    """``advance``/``bits``/``keystream`` against the one-bit ``step``."""

    @pytest.mark.parametrize("taps", [(9, 5), (10, 7), (11, 9), (17, 14),
                                      (16, 15, 13, 4), (32, 22, 2, 1),
                                      (5,), (7, 6, 3)])
    def test_bits_match_steps(self, taps):
        rng = DRBG(b"lfsr-words-%r" % (taps,))
        for n in (0, 1, min(taps) - 1, min(taps), min(taps) + 1, 257):
            seed = 1 + rng.randbits(max(taps) - 1)
            words, oracle = LFSR(taps, seed), LFSR(taps, seed)
            assert words.bits(n) == [oracle.step() for _ in range(n)]
            assert words.state == oracle.state

    def test_advance_is_k_steps(self):
        lfsr, oracle = LFSR((11, 9), 0x5A5), LFSR((11, 9), 0x5A5)
        for k in (1, 9, 4, 9, 0, 2):
            word = lfsr.advance(k)
            assert [(word >> i) & 1 for i in range(k)] \
                == [oracle.step() for _ in range(k)]
            assert lfsr.state == oracle.state

    @pytest.mark.parametrize("nbytes", (0, 1, 3, 17))
    def test_geffe_keystream_matches_steps(self, nbytes):
        words = GeffeGenerator(0x1F3, 0x2A5, 0x3B7, *_E_TAPS)
        oracle = GeffeGenerator(0x1F3, 0x2A5, 0x3B7, *_E_TAPS)
        bits = [oracle.step() for _ in range(8 * nbytes)]
        expected = bytes(
            int("".join(map(str, bits[i: i + 8])), 2)
            for i in range(0, len(bits), 8))
        assert words.keystream(nbytes) == expected
        assert (words.a.state, words.b.state, words.c.state) \
            == (oracle.a.state, oracle.b.state, oracle.c.state)

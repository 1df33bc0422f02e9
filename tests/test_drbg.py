"""Deterministic RNG: reproducibility, ranges, derived streams."""

import random

import pytest

from repro.crypto import DRBG
from repro.crypto.sha256 import sha256
from repro.compression import shannon_entropy


class PerBlockStream:
    """The DRBG's byte stream, one counter block appended at a time (the
    body ``random_bytes`` has always had): the reference for the bulk
    ``peek``/``advance`` reads."""

    def __init__(self, seed: int):
        self.key = sha256(b"repro-drbg" + seed.to_bytes(16, "big"))
        self.counter = 0
        self.pool = b""

    def peek(self, n: int) -> bytes:
        while len(self.pool) < n:
            self.pool += sha256(self.key + self.counter.to_bytes(8, "big"))
            self.counter += 1
        return self.pool[:n]

    def take(self, n: int) -> bytes:
        out = self.peek(n)
        self.pool = self.pool[n:]
        return out


class TestDeterminism:
    def test_same_seed_same_stream(self):
        assert DRBG(42).random_bytes(64) == DRBG(42).random_bytes(64)

    def test_different_seeds_differ(self):
        assert DRBG(42).random_bytes(64) != DRBG(43).random_bytes(64)

    def test_seed_types(self):
        for seed in (0, "string-seed", b"bytes-seed"):
            rng = DRBG(seed)
            assert len(rng.random_bytes(8)) == 8

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_int_seed_outside_128_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
            DRBG(seed)

    def test_int_seed_bounds_accepted(self):
        assert DRBG(0).random_bytes(4) != DRBG(2 ** 128 - 1).random_bytes(4)

    def test_fork_independence(self):
        root = DRBG(42)
        a = root.fork("a").random_bytes(32)
        b = root.fork("b").random_bytes(32)
        assert a != b

    def test_fork_reproducible(self):
        assert DRBG(42).fork("x").random_bytes(16) == \
            DRBG(42).fork("x").random_bytes(16)

    def test_fork_does_not_consume_parent(self):
        root1, root2 = DRBG(42), DRBG(42)
        root1.fork("a")
        assert root1.random_bytes(16) == root2.random_bytes(16)


class TestRanges:
    def test_randbits_width(self):
        rng = DRBG(1)
        for bits in (1, 7, 8, 13, 64):
            for _ in range(20):
                assert 0 <= rng.randbits(bits) < (1 << bits)

    def test_randbelow_bounds(self):
        rng = DRBG(1)
        for n in (1, 2, 10, 1000):
            for _ in range(20):
                assert 0 <= rng.randbelow(n) < n

    def test_randbelow_covers_range(self):
        rng = DRBG(1)
        seen = {rng.randbelow(4) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_randbelow_invalid(self):
        with pytest.raises(ValueError):
            DRBG(1).randbelow(0)

    def test_randint_inclusive(self):
        rng = DRBG(1)
        values = {rng.randint(5, 7) for _ in range(100)}
        assert values == {5, 6, 7}

    def test_randint_empty_range(self):
        with pytest.raises(ValueError):
            DRBG(1).randint(5, 4)

    def test_random_unit_interval(self):
        rng = DRBG(1)
        for _ in range(50):
            x = rng.random()
            assert 0.0 <= x < 1.0


class TestCollections:
    def test_choice(self):
        rng = DRBG(1)
        items = ["a", "b", "c"]
        assert all(rng.choice(items) in items for _ in range(30))

    def test_choice_empty(self):
        with pytest.raises(ValueError):
            DRBG(1).choice([])

    def test_shuffle_is_permutation(self):
        rng = DRBG(1)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # astronomically unlikely to be identity


class TestBulkReads:
    def test_peek_then_advance_is_random_bytes(self):
        rng, twin = DRBG(3), DRBG(3)
        assert rng.peek(70) == rng.peek(70) == twin.random_bytes(70)
        rng.advance(70)
        assert rng.random_bytes(9) == twin.random_bytes(9)

    @pytest.mark.parametrize("seed", [0, 1, 2005])
    def test_random_ops_match_the_per_block_stream(self, seed):
        """Draw sizes 0-100 cross 32-byte block boundaries in every
        phase; per-draw methods, peek and advance interleave freely."""
        ops = random.Random(seed)
        rng, ref = DRBG(seed), PerBlockStream(seed)
        for _ in range(600):
            n = ops.randrange(101)
            op = ops.randrange(4)
            if op == 0:
                assert rng.random_bytes(n) == ref.take(n)
            elif op == 1:
                assert rng.peek(n) == ref.peek(n)
            elif op == 2:
                rng.advance(n)
                ref.take(n)
            else:
                bits = ops.randrange(1, 65)
                nbytes = (bits + 7) // 8
                expected = (int.from_bytes(ref.take(nbytes), "big")
                            >> (8 * nbytes - bits))
                assert rng.randbits(bits) == expected
        assert rng.random_bytes(64) == ref.take(64)

    def test_negative_counts_rejected(self):
        """A negative count used to slice the pool from the wrong end:
        after 5 bytes, random_bytes(-3) returned 24 bytes."""
        rng, twin = DRBG(1), DRBG(1)
        rng.random_bytes(5)
        twin.random_bytes(5)
        for name in ("random_bytes", "randbits", "peek", "advance"):
            with pytest.raises(ValueError, match="got -3"):
                getattr(rng, name)(-3)
        assert rng.random_bytes(40) == twin.random_bytes(40)

    def test_zero_counts(self):
        rng = DRBG(1)
        assert rng.random_bytes(0) == rng.peek(0) == b""
        assert rng.randbits(0) == 0
        rng.advance(0)
        assert rng.random_bytes(8) == DRBG(1).random_bytes(8)


class TestQuality:
    def test_byte_entropy(self):
        data = DRBG(7).random_bytes(16384)
        assert shannon_entropy(data) > 7.9

    def test_mean_near_half(self):
        rng = DRBG(7)
        mean = sum(rng.random() for _ in range(2000)) / 2000
        assert 0.45 < mean < 0.55

"""Deterministic random bit generator (hash-DRBG style, over SHA-256).

Every stochastic element of the reproduction — RSA prime search, random IVs,
workload generation, key material — draws from this DRBG so that every
experiment is exactly reproducible from a seed.
"""

from __future__ import annotations

from .sha256 import sha256

__all__ = ["DRBG"]


class DRBG:
    """Counter-mode DRBG over SHA-256.

    Not certified SP 800-90A — it is a reproducibility tool whose output is
    uniform enough for statistical experiments and key generation within the
    simulation.
    """

    def __init__(self, seed) -> None:
        if isinstance(seed, int):
            if not 0 <= seed < 1 << 128:
                raise ValueError(
                    f"an int seed must be in [0, 2**128), got {seed}")
            seed = seed.to_bytes(16, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode()
        self._key = sha256(b"repro-drbg" + bytes(seed))
        self._counter = 0
        self._pool = b""

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes."""
        if n < 0:
            raise ValueError(f"byte count must be >= 0, got {n}")
        while len(self._pool) < n:
            block = sha256(self._key + self._counter.to_bytes(8, "big"))
            self._counter += 1
            self._pool += block
        out, self._pool = self._pool[:n], self._pool[n:]
        return out

    def randbits(self, bits: int) -> int:
        """Return a uniform integer of at most ``bits`` bits."""
        if bits < 0:
            raise ValueError(f"bits must be >= 0, got {bits}")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        return value >> (8 * nbytes - bits)

    def peek(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream without consuming them.

        ``peek(n)`` equals what ``random_bytes(n)`` would return; the
        counter blocks it needs are hashed in one pass, so a bulk reader
        (an array workload generator) can parse a whole slab of draws
        and then :meth:`advance` past exactly the bytes it used.
        """
        if n < 0:
            raise ValueError(f"byte count must be >= 0, got {n}")
        short = n - len(self._pool)
        if short > 0:
            key, counter = self._key, self._counter
            blocks = (short + 31) // 32
            self._pool += b"".join(
                sha256(key + c.to_bytes(8, "big"))
                for c in range(counter, counter + blocks))
            self._counter = counter + blocks
        return self._pool[:n]

    def advance(self, k: int) -> None:
        """Consume ``k`` bytes of the stream (as ``random_bytes(k)`` would)."""
        if k < 0:
            raise ValueError(f"byte count must be >= 0, got {k}")
        if k > len(self._pool):
            self.peek(k)
        self._pool = self._pool[k:]

    def randbelow(self, n: int) -> int:
        """Return a uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        bits = n.bit_length()
        while True:
            value = self.randbits(bits)
            if value < n:
                return value

    def randint(self, lo: int, hi: int) -> int:
        """Return a uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randbelow(hi - lo + 1)

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return self.randbits(53) / (1 << 53)

    def choice(self, seq):
        """Return a uniform element from a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def fork(self, label: str) -> "DRBG":
        """Derive an independent child stream (for parallel components)."""
        return DRBG(self._key + label.encode())

"""Linear-feedback shift registers and LFSR-based keystream generators.

The survey (Section 4) notes that a CPU-cache stream cipher needs a keystream
that is cheap to produce in hardware yet "sufficiently random to be secure".
LFSRs are the classic hardware answer; this module provides:

* :class:`LFSR` — a Fibonacci LFSR over GF(2) with arbitrary taps;
* :class:`GeffeGenerator` — the classic 3-LFSR nonlinear combiner, a
  realistic stand-in for a hardware keystream unit (and a teachable one: its
  correlation weakness is measured in the security analysis);
* :class:`AlternatingStepGenerator` — a stronger clock-controlled combiner.

All generators expose ``keystream(nbytes)`` so they are interchangeable with
:class:`repro.crypto.rc4.RC4` in the stream engine.
"""

from __future__ import annotations

from typing import Callable, Sequence

__all__ = ["LFSR", "GeffeGenerator", "AlternatingStepGenerator", "MAXIMAL_TAPS"]

# Known maximal-length tap sets (polynomial exponents) for common widths.
MAXIMAL_TAPS = {
    8: (8, 6, 5, 4),
    16: (16, 15, 13, 4),
    17: (17, 14),
    23: (23, 18),
    25: (25, 22),
    31: (31, 28),
    32: (32, 22, 2, 1),
}


class LFSR:
    """Fibonacci LFSR over GF(2).

    ``taps`` are polynomial exponents, e.g. ``(16, 15, 13, 4)`` for
    x^16 + x^15 + x^13 + x^4 + 1.  The register width is ``max(taps)``.
    The output bit is the register's least-significant bit.
    """

    def __init__(self, taps: Sequence[int], seed: int):
        if not taps:
            raise ValueError("taps must be non-empty")
        self.width = max(taps)
        self.taps = tuple(sorted(set(taps), reverse=True))
        mask = (1 << self.width) - 1
        self.state = seed & mask
        if self.state == 0:
            raise ValueError("LFSR seed must be non-zero")
        self._mask = mask

    def step(self) -> int:
        """Advance one step; return the output bit."""
        out = self.state & 1
        feedback = 0
        for t in self.taps:
            feedback ^= (self.state >> (self.width - t)) & 1
        self.state = (self.state >> 1) | (feedback << (self.width - 1))
        return out

    def advance(self, k: int) -> int:
        """``k <= min(taps)`` steps at once: each feedback bit looks back
        at least ``min(taps)`` bits, so the next k are the XOR of the
        state's windows shifted by ``width - t``.  Returns the k output
        bits, the first in bit 0."""
        state = self.state
        feedback = 0
        for t in self.taps:
            feedback ^= state >> (self.width - t)
        mask = (1 << k) - 1
        self.state = (state >> k) | ((feedback & mask) << (self.width - k))
        return state & mask

    def bits(self, n: int) -> list:
        """The next ``n`` output bits, ``min(taps)`` steps at a time
        (:meth:`step` is the one-bit oracle)."""
        return list(_bit_string(n, self.taps[-1], self.advance)
                    .encode().translate(_DIGITS))

    def period(self, limit: int = 1 << 20) -> int:
        """Measure the cycle length from the current state (up to ``limit``)."""
        start = self.state
        count = 0
        while count < limit:
            self.step()
            count += 1
            if self.state == start:
                return count
        return limit


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_string(n: int, step: int, advance: Callable[[int], int]) -> str:
    """``n`` output bits as a '0'/'1' string in output order, ``step`` at
    a time: ``advance(k)`` returns the next k bits, the first in bit 0."""
    chunks = []
    for done in range(0, n, step):
        k = min(step, n - done)
        # bin() of the word with a marker bit above it: '0b1' then k
        # digits, last output bit first; reverse them.
        chunks.append(bin(advance(k) | 1 << k)[3:][::-1])
    return "".join(chunks)


def _keystream(nbytes: int, step: int, advance: Callable[[int], int]) -> bytes:
    """``8 * nbytes`` output bits packed MSB first."""
    bits = _bit_string(8 * nbytes, step, advance)
    return int(bits, 2).to_bytes(nbytes, "big") if nbytes else b""


class GeffeGenerator:
    """Geffe generator: out = (a & b) ^ (~a & c) over three LFSRs.

    Cheap in gates, but the output correlates 75% with LFSR ``b`` and with
    LFSR ``c`` — the textbook correlation attack target.  Used in E06/E12 to
    quantify "cheap keystream" security.
    """

    def __init__(self, seed_a: int, seed_b: int, seed_c: int,
                 taps_a: Sequence[int] = MAXIMAL_TAPS[17],
                 taps_b: Sequence[int] = MAXIMAL_TAPS[23],
                 taps_c: Sequence[int] = MAXIMAL_TAPS[25]):
        self.a = LFSR(taps_a, seed_a)
        self.b = LFSR(taps_b, seed_b)
        self.c = LFSR(taps_c, seed_c)

    def step(self) -> int:
        a, b, c = self.a.step(), self.b.step(), self.c.step()
        return (a & b) ^ ((a ^ 1) & c)

    def advance(self, k: int) -> int:
        """``k`` output bits (first in bit 0), ``k`` at most every
        register's ``min(taps)``."""
        a, b, c = self.a.advance(k), self.b.advance(k), self.c.advance(k)
        return (a & b) ^ (c & ~a)

    def keystream(self, nbytes: int) -> bytes:
        return _keystream(nbytes, min(lfsr.taps[-1] for lfsr in (
            self.a, self.b, self.c)), self.advance)


class AlternatingStepGenerator:
    """Alternating step generator: a control LFSR clocks one of two others."""

    def __init__(self, seed_control: int, seed_a: int, seed_b: int):
        self.control = LFSR(MAXIMAL_TAPS[17], seed_control)
        self.a = LFSR(MAXIMAL_TAPS[23], seed_a)
        self.b = LFSR(MAXIMAL_TAPS[25], seed_b)
        self._last_a = self.a.state & 1
        self._last_b = self.b.state & 1

    def step(self) -> int:
        if self.control.step():
            self._last_a = self.a.step()
        else:
            self._last_b = self.b.step()
        return self._last_a ^ self._last_b

    def keystream(self, nbytes: int) -> bytes:
        return _keystream(nbytes, 1, lambda k: self.step())

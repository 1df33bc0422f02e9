"""MSB-first bit I/O for the CodePack coder.  Each call costs the same
anywhere in a long stream: the writer moves whole bytes out of its int
every ``_FLUSH_BITS``, the reader decodes only the bytes that hold the
value."""

from __future__ import annotations

__all__ = ["BitReader", "BitWriter"]

_FLUSH_BITS = 1024


class BitWriter:
    """MSB-first bit packer; each value is masked to its width."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._pending = 0  # bits in _acc

    @property
    def nbits(self) -> int:
        return 8 * len(self._out) + self._pending

    def write(self, value: int, width: int) -> None:
        self._acc = (self._acc << width) | (value & ((1 << width) - 1))
        self._pending += width
        if self._pending >= _FLUSH_BITS:
            spare = self._pending & 7
            self._out += (self._acc >> spare).to_bytes(
                self._pending >> 3, "big")
            self._acc &= (1 << spare) - 1
            self._pending = spare

    def to_bytes(self) -> bytes:
        """The bits written, zero-padded to a whole byte."""
        pad = -self._pending % 8
        return bytes(self._out) + (self._acc << pad).to_bytes(
            (self._pending + pad) // 8, "big")


class BitReader:
    """MSB-first reader of the first ``nbits`` bits of ``data`` (all of it
    by default); reading past them raises ``IndexError``."""

    def __init__(self, data: bytes, nbits: int = -1):
        self._data = data
        self.nbits = min(nbits, 8 * len(data)) if nbits >= 0 \
            else 8 * len(data)
        self.pos = 0

    def read(self, width: int) -> int:
        start, end = self.pos, self.pos + width
        if end > self.nbits:
            raise IndexError(
                f"bit read past the end: {end} > {self.nbits} bits")
        self.pos = end
        last = (end + 7) >> 3
        return (int.from_bytes(self._data[start >> 3: last], "big")
                >> (8 * last - end)) & ((1 << width) - 1)

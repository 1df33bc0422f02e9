"""CodePack-style code compression (IBM [16] in the survey).

IBM's CodePack compresses PowerPC code by splitting each 32-bit instruction
into two 16-bit halves and encoding each half against dictionaries of the
most frequent values, with an escape for misses.  Compression happens at a
fixed block granularity and a *line address table* (LAT) maps each block to
its compressed offset, so the memory controller can fetch and decompress any
block independently — exactly what random access on a processor bus needs.

The survey reports "+/- 10%" performance impact and "an increase of memory
density of 35%"; experiment E13 regenerates both numbers' shape with this
implementation feeding the compression+encryption engine of Figure 8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .bitio import BitReader, BitWriter

__all__ = ["CodePack", "CompressedImage"]


@dataclass
class CompressedImage:
    """A compressed code image with per-block random access.

    ``blocks[i]`` holds the compressed bytes of original block ``i``;
    ``lat`` (line address table) gives each block's byte offset in the
    packed stream, mirroring the indirection table CodePack keeps in memory.
    """

    block_size: int
    original_size: int
    blocks: List[bytes]
    dict_high: List[int]
    dict_low: List[int]
    lat: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lat:
            offset = 0
            for block in self.blocks:
                self.lat.append(offset)
                offset += len(block)

    @property
    def compressed_size(self) -> int:
        """Payload plus LAT plus dictionaries — the honest footprint."""
        payload = sum(len(b) for b in self.blocks)
        lat_bytes = 4 * len(self.lat)
        dict_bytes = 2 * (len(self.dict_high) + len(self.dict_low))
        return payload + lat_bytes + dict_bytes

    @property
    def ratio(self) -> float:
        """compressed/original size ratio (< 1 means the image shrank)."""
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    @property
    def density_gain(self) -> float:
        """Fractional memory-density increase, the survey's 35% metric.

        An image compressed to ratio r stores 1/r as much code in the same
        memory, i.e. a density gain of 1/r - 1.
        """
        r = self.ratio
        if r <= 0:
            return 0.0
        return 1.0 / r - 1.0


class CodePack:
    """Dictionary compressor for instruction streams.

    Parameters
    ----------
    block_size:
        Compression granularity in bytes (normally the cache-line size, so
        one decompression serves one line fill).  Must be a multiple of 4.
    index_bits:
        log2 of the dictionary size; CodePack-like designs use small
        dictionaries that fit in on-chip SRAM.
    """

    def __init__(self, block_size: int = 64, index_bits: int = 8):
        if block_size % 4 != 0 or block_size <= 0:
            raise ValueError(
                f"block_size must be a positive multiple of 4, got {block_size}"
            )
        if not 1 <= index_bits <= 16:
            raise ValueError(f"index_bits must be in [1, 16], got {index_bits}")
        self.block_size = block_size
        self.index_bits = index_bits
        self.dict_entries = 1 << index_bits

    # -- dictionary construction ----------------------------------------

    def _build_dictionaries(self, image: bytes) -> Tuple[List[int], List[int]]:
        highs: Counter = Counter()
        lows: Counter = Counter()
        for i in range(0, len(image) - 3, 4):
            word = int.from_bytes(image[i: i + 4], "big")
            highs[word >> 16] += 1
            lows[word & 0xFFFF] += 1
        dict_high = [hw for hw, _ in highs.most_common(self.dict_entries)]
        dict_low = [lw for lw, _ in lows.most_common(self.dict_entries)]
        return dict_high, dict_low

    # -- per-block codec -------------------------------------------------

    def _encode_half(
        self, writer: BitWriter, half: int, index: Dict[int, int]
    ) -> None:
        idx = index.get(half)
        if idx is not None:
            writer.write(1, 1)
            writer.write(idx, self.index_bits)
        else:
            writer.write(0, 1)
            writer.write(half, 16)

    def _decode_half(self, reader: BitReader, table: List[int]) -> int:
        if reader.read(1):
            return table[reader.read(self.index_bits)]
        return reader.read(16)

    def compress_block(
        self, block: bytes, high_index: Dict[int, int], low_index: Dict[int, int]
    ) -> bytes:
        """Compress one block against prebuilt dictionary indexes."""
        if len(block) % 4 != 0:
            raise ValueError(f"block length must be a multiple of 4, got {len(block)}")
        writer = BitWriter()
        for i in range(0, len(block), 4):
            word = int.from_bytes(block[i: i + 4], "big")
            self._encode_half(writer, word >> 16, high_index)
            self._encode_half(writer, word & 0xFFFF, low_index)
        return writer.to_bytes()

    def decompress_block(
        self,
        data: bytes,
        nbytes: int,
        dict_high: List[int],
        dict_low: List[int],
    ) -> bytes:
        """Decompress one block back to ``nbytes`` of code."""
        if nbytes % 4 != 0:
            raise ValueError(f"nbytes must be a multiple of 4, got {nbytes}")
        reader = BitReader(data)
        out = bytearray()
        for _ in range(nbytes // 4):
            high = self._decode_half(reader, dict_high)
            low = self._decode_half(reader, dict_low)
            out += ((high << 16) | low).to_bytes(4, "big")
        return bytes(out)

    # -- whole-image interface --------------------------------------------

    def compress_image(self, image: bytes) -> CompressedImage:
        """Compress an entire code image block by block."""
        if len(image) % 4 != 0:
            image = image + b"\x00" * (4 - len(image) % 4)
        dict_high, dict_low = self._build_dictionaries(image)
        high_index = {hw: i for i, hw in enumerate(dict_high)}
        low_index = {lw: i for i, lw in enumerate(dict_low)}
        blocks = []
        for start in range(0, len(image), self.block_size):
            chunk = image[start: start + self.block_size]
            if len(chunk) % 4 != 0:
                chunk = chunk + b"\x00" * (4 - len(chunk) % 4)
            blocks.append(self.compress_block(chunk, high_index, low_index))
        return CompressedImage(
            block_size=self.block_size,
            original_size=len(image),
            blocks=blocks,
            dict_high=dict_high,
            dict_low=dict_low,
        )

    def decompress_image(self, compressed: CompressedImage) -> bytes:
        """Decompress every block and trim to the original size."""
        out = bytearray()
        remaining = compressed.original_size
        for block in compressed.blocks:
            nbytes = min(self.block_size, remaining)
            padded = nbytes + (4 - nbytes % 4) % 4
            out += self.decompress_block(
                block, padded, compressed.dict_high, compressed.dict_low
            )[:nbytes]
            remaining -= nbytes
        return bytes(out)

    def fetch_block(self, compressed: CompressedImage, block_idx: int) -> bytes:
        """Random-access decompression of block ``block_idx`` via the LAT."""
        if not 0 <= block_idx < len(compressed.blocks):
            raise IndexError(f"block {block_idx} out of range")
        start = block_idx * self.block_size
        nbytes = min(self.block_size, compressed.original_size - start)
        padded = nbytes + (4 - nbytes % 4) % 4
        return self.decompress_block(
            compressed.blocks[block_idx],
            padded,
            compressed.dict_high,
            compressed.dict_low,
        )[:nbytes]

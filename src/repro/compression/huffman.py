"""Canonical Huffman coding over bytes.

General-purpose entropy coder used standalone and as the back end of the
CodePack-style code compressor.  The encoded stream is self-describing: a
canonical code-length table precedes the payload, so ``decompress`` needs no
out-of-band state.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, List, Tuple

from .bitio import BitReader, BitWriter

__all__ = ["huffman_compress", "huffman_decompress", "build_code_lengths",
           "canonical_codes"]

_MAX_CODE_LEN = 255


def build_code_lengths(data: bytes) -> Dict[int, int]:
    """Compute Huffman code lengths for each byte present in ``data``."""
    freq = Counter(data)
    if not freq:
        return {}
    if len(freq) == 1:
        symbol = next(iter(freq))
        return {symbol: 1}
    # Heap of (weight, tiebreak, symbols-with-depths)
    heap: List[Tuple[int, int, List[Tuple[int, int]]]] = []
    for tiebreak, (symbol, weight) in enumerate(sorted(freq.items())):
        heap.append((weight, tiebreak, [(symbol, 0)]))
    heapq.heapify(heap)
    counter = len(heap)
    while len(heap) > 1:
        w1, _, s1 = heapq.heappop(heap)
        w2, _, s2 = heapq.heappop(heap)
        merged = [(sym, d + 1) for sym, d in s1 + s2]
        heapq.heappush(heap, (w1 + w2, counter, merged))
        counter += 1
    return {symbol: depth for symbol, depth in heap[0][2]}


def canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """Assign canonical codes: returns symbol -> (code, length)."""
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    prev_len = 0
    for symbol, length in ordered:
        code <<= length - prev_len
        codes[symbol] = (code, length)
        code += 1
        prev_len = length
    return codes


def huffman_compress(data: bytes) -> bytes:
    """Compress ``data``; header = 256 code lengths + original size + bits."""
    lengths = build_code_lengths(data)
    codes = canonical_codes(lengths)
    writer = BitWriter()
    for byte in data:
        writer.write(*codes[byte])
    payload, bit_count = writer.to_bytes(), writer.nbits
    header = bytearray()
    header += len(data).to_bytes(4, "big")
    header += bit_count.to_bytes(4, "big")
    for symbol in range(256):
        header.append(lengths.get(symbol, 0))
    return bytes(header) + payload


def huffman_decompress(blob: bytes) -> bytes:
    """Invert :func:`huffman_compress`."""
    if len(blob) < 264:
        raise ValueError("truncated huffman blob")
    size = int.from_bytes(blob[0:4], "big")
    bit_count = int.from_bytes(blob[4:8], "big")
    lengths = {s: blob[8 + s] for s in range(256) if blob[8 + s] != 0}
    payload = blob[264:]
    if size == 0:
        return b""
    codes = canonical_codes(lengths)
    # Decoding table: (length, code) -> symbol
    decode = {(length, code): sym for sym, (code, length) in codes.items()}
    reader = BitReader(payload, bit_count)
    out = bytearray()
    code = 0
    length = 0
    while len(out) < size:
        try:
            code = (code << 1) | reader.read(1)
        except IndexError:
            raise ValueError("huffman bit stream exhausted") from None
        length += 1
        if length > _MAX_CODE_LEN:
            raise ValueError("corrupt huffman stream: code too long")
        sym = decode.get((length, code))
        if sym is not None:
            out.append(sym)
            code = 0
            length = 0
    return bytes(out)

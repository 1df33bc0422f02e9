"""Compression substrate: CodePack-style code compression, LZ77, RLE and
entropy estimators (survey Figure 8 / experiment E13)."""

from .codepack import CodePack, CompressedImage
from .entropy import (
    block_collision_rate,
    byte_histogram,
    chi_square_uniform,
    redundancy,
    shannon_entropy,
)
from .lz77 import lz77_compress, lz77_decompress
from .rle import rle_compress, rle_decompress

__all__ = [
    "CodePack", "CompressedImage",
    "block_collision_rate", "byte_histogram", "chi_square_uniform",
    "redundancy", "shannon_entropy",
    "lz77_compress", "lz77_decompress",
    "rle_compress", "rle_decompress",
]

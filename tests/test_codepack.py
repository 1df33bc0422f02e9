"""CodePack-style code compression: roundtrips, random access, and the
density claims of E13."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import CodePack
from repro.compression.bitio import BitReader, BitWriter
from repro.crypto import DRBG
from repro.traces import synthetic_code_image


@pytest.fixture(scope="module")
def code_image():
    return synthetic_code_image(size=16 * 1024)


class TestRoundtrip:
    def test_image_roundtrip(self, code_image):
        cp = CodePack(block_size=64)
        compressed = cp.compress_image(code_image)
        assert cp.decompress_image(compressed) == code_image

    def test_small_image(self):
        cp = CodePack(block_size=32)
        image = bytes(range(64))
        assert cp.decompress_image(cp.compress_image(image)) == image

    def test_unaligned_image_padded(self):
        cp = CodePack(block_size=32)
        image = bytes(range(30))
        out = cp.decompress_image(cp.compress_image(image))
        assert out[:30] == image

    def test_random_data_roundtrip(self):
        cp = CodePack(block_size=64)
        image = DRBG(3).random_bytes(4096)
        assert cp.decompress_image(cp.compress_image(image)) == image


class TestRandomAccess:
    def test_fetch_block_matches_slice(self, code_image):
        cp = CodePack(block_size=64)
        compressed = cp.compress_image(code_image)
        for idx in (0, 1, 7, len(compressed.blocks) - 1):
            assert cp.fetch_block(compressed, idx) == \
                code_image[idx * 64: (idx + 1) * 64]

    def test_fetch_block_out_of_range(self, code_image):
        cp = CodePack(block_size=64)
        compressed = cp.compress_image(code_image)
        with pytest.raises(IndexError):
            cp.fetch_block(compressed, len(compressed.blocks))

    def test_lat_offsets_monotone(self, code_image):
        compressed = CodePack(block_size=64).compress_image(code_image)
        assert compressed.lat == sorted(compressed.lat)
        assert compressed.lat[0] == 0


class TestCompressionQuality:
    def test_code_like_image_compresses(self, code_image):
        """The survey quotes ≈35% density gain for CodePack; a code-like
        image must land in that neighbourhood (ratio well below 1)."""
        compressed = CodePack(block_size=64).compress_image(code_image)
        assert compressed.ratio < 0.85
        assert compressed.density_gain > 0.15

    def test_random_image_does_not_compress(self):
        image = DRBG(3).random_bytes(16 * 1024)
        compressed = CodePack(block_size=64).compress_image(image)
        assert compressed.ratio > 0.95

    def test_density_gain_matches_ratio(self, code_image):
        compressed = CodePack(block_size=64).compress_image(code_image)
        assert compressed.density_gain == pytest.approx(
            1.0 / compressed.ratio - 1.0
        )

    def test_dictionary_size_tradeoff(self, code_image):
        """Index width trades per-hit cost against coverage: for an image
        dominated by a handful of idioms, the narrow index wins (each hit
        costs 1+4 bits instead of 1+10)."""
        small = CodePack(block_size=64, index_bits=4).compress_image(code_image)
        large = CodePack(block_size=64, index_bits=10).compress_image(code_image)
        assert small.ratio < large.ratio
        assert small.ratio < 1.0 and large.ratio < 1.0


class TestValidation:
    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            CodePack(block_size=30)
        with pytest.raises(ValueError):
            CodePack(block_size=0)

    def test_bad_index_bits(self):
        with pytest.raises(ValueError):
            CodePack(index_bits=0)
        with pytest.raises(ValueError):
            CodePack(index_bits=17)

    def test_decompress_block_validates_size(self, code_image):
        cp = CodePack(block_size=64)
        compressed = cp.compress_image(code_image)
        with pytest.raises(ValueError):
            cp.decompress_block(
                compressed.blocks[0], 63,
                compressed.dict_high, compressed.dict_low,
            )


class _PerBitWriter:
    """Oracle: one list entry per bit, packed eight at a time."""

    def __init__(self):
        self.bits = []

    def write(self, value, width):
        for i in range(width - 1, -1, -1):
            self.bits.append((value >> i) & 1)

    def to_bytes(self):
        out = bytearray()
        for i in range(0, len(self.bits), 8):
            chunk = self.bits[i: i + 8]
            byte = 0
            for b in chunk:
                byte = (byte << 1) | b
            out.append(byte << (8 - len(chunk)))
        return bytes(out)


class _PerBitReader:
    """Oracle: one byte index per bit; past the end raises IndexError."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def read(self, width):
        value = 0
        for _ in range(width):
            byte = self.data[self.pos // 8]
            value = (value << 1) | ((byte >> (7 - self.pos % 8)) & 1)
            self.pos += 1
        return value


_FIELDS = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 16)),
                   max_size=120)


class TestBitIO:
    """The shared bit packer and reader against the per-bit oracle,
    values wider than their field included."""

    @settings(max_examples=200, deadline=None)
    @given(fields=_FIELDS)
    def test_writer_matches_oracle(self, fields):
        writer, oracle = BitWriter(), _PerBitWriter()
        for value, width in fields:
            writer.write(value, width)
            oracle.write(value, width)
        assert writer.to_bytes() == oracle.to_bytes()

    @settings(max_examples=200, deadline=None)
    @given(fields=_FIELDS, overrun=st.integers(9, 16))
    def test_reader_matches_oracle(self, fields, overrun):
        oracle_writer = _PerBitWriter()
        for value, width in fields:
            oracle_writer.write(value, width)
        data = oracle_writer.to_bytes()
        reader, oracle = BitReader(data), _PerBitReader(data)
        for value, width in fields:
            got = reader.read(width)
            assert got == oracle.read(width) == value & ((1 << width) - 1)
        # At most seven pad bits remain, so a 9..16-bit read overruns.
        with pytest.raises(IndexError):
            oracle.read(overrun)
        with pytest.raises(IndexError):
            reader.read(overrun)

    def test_long_stream_across_flushes(self):
        """Thousands of fields: the writer moves bytes out of its int many
        times, and the reader stops at its ``nbits`` limit."""
        rng = DRBG(b"bitio-long")
        fields = [(rng.randbits(20), 1 + rng.randbits(4))
                  for _ in range(5000)]
        writer, oracle = BitWriter(), _PerBitWriter()
        for value, width in fields:
            writer.write(value, width)
            oracle.write(value, width)
        data = writer.to_bytes()
        assert data == oracle.to_bytes()
        assert writer.nbits == len(oracle.bits)
        reader = BitReader(data, writer.nbits)
        for value, width in fields:
            assert reader.read(width) == value & ((1 << width) - 1)
        assert reader.pos == writer.nbits
        with pytest.raises(IndexError):
            reader.read(1)

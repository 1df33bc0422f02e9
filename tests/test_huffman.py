"""Canonical Huffman codec: roundtrips, edge cases, corruption handling."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import huffman_compress, huffman_decompress
from repro.compression.huffman import build_code_lengths, canonical_codes
from repro.crypto import DRBG


class TestCodeConstruction:
    def test_lengths_reflect_frequency(self):
        data = b"a" * 100 + b"b" * 10 + b"c"
        lengths = build_code_lengths(data)
        assert lengths[ord("a")] <= lengths[ord("b")] <= lengths[ord("c")]

    def test_single_symbol(self):
        lengths = build_code_lengths(b"aaaa")
        assert lengths == {ord("a"): 1}

    def test_empty(self):
        assert build_code_lengths(b"") == {}

    def test_kraft_inequality(self):
        """Code lengths must satisfy sum(2^-l) <= 1 (prefix-free)."""
        data = bytes(range(256)) + b"abc" * 40
        lengths = build_code_lengths(data)
        assert sum(2 ** -l for l in lengths.values()) <= 1.0 + 1e-9

    def test_canonical_codes_prefix_free(self):
        data = b"hello huffman world" * 10
        codes = canonical_codes(build_code_lengths(data))
        items = [(format(c, f"0{l}b")) for c, l in codes.values()]
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                if i != j:
                    assert not b.startswith(a)


class TestRoundtrip:
    def test_text(self):
        data = b"the quick brown fox jumps over the lazy dog" * 20
        assert huffman_decompress(huffman_compress(data)) == data

    def test_empty(self):
        assert huffman_decompress(huffman_compress(b"")) == b""

    def test_single_byte(self):
        assert huffman_decompress(huffman_compress(b"x")) == b"x"

    def test_single_symbol_run(self):
        data = b"\x00" * 1000
        assert huffman_decompress(huffman_compress(data)) == data

    def test_all_byte_values(self):
        data = bytes(range(256)) * 4
        assert huffman_decompress(huffman_compress(data)) == data

    def test_skewed_data_compresses(self):
        data = b"a" * 900 + bytes(range(100))
        compressed = huffman_compress(data)
        assert len(compressed) < len(data)

    def test_uniform_data_does_not_explode(self):
        """Header is 264 bytes; payload stays near 8 bits/byte."""
        data = bytes((i * 37) & 0xFF for i in range(2048))
        compressed = huffman_compress(data)
        assert len(compressed) < len(data) + 300


#: sha256 of huffman_compress(input), recorded with the per-bit packer
#: the codec had before it shared repro.compression.bitio.
_BLOB_PINS = {
    b"": "44b8aa4d28701168922acf61435ea4bb442f97b0b14ad7a2510ed68874ee2a72",
    b"x": "ac3a286e2c4180b95e7fe69faf30ac24107726149596b61ef4fbb3d84b52055c",
    b"hello huffman world" * 10:
        "cf6a69dbe5d49afe7a51c0b25d390628788244e39f24aa0bf60e61305fa3a99b",
    bytes(range(256)) * 4:
        "3596c7cfa895d928808915e18d2d11e172722bdc3dad957c3ebbb28dbdb50756",
    DRBG(b"huffman-pins").random_bytes(4096):
        "1b10f85a37842b815a12b3522ad048c9ce4a6399a3894910ff2cd985ef26ac4b",
    b"a" * 900 + bytes(range(100)):
        "170953046a3721c3768ec5bd31cc33a064121e76cea510e169b7fe9375d090bc",
}


@pytest.mark.parametrize("data", list(_BLOB_PINS), ids=range(len(_BLOB_PINS)))
def test_blobs_match_pins(data):
    blob = huffman_compress(data)
    assert hashlib.sha256(blob).hexdigest() == _BLOB_PINS[data]
    assert huffman_decompress(blob) == data


class TestErrors:
    def test_truncated_blob(self):
        with pytest.raises(ValueError):
            huffman_decompress(b"too short")

    def test_truncated_or_exhausted_stream_raises_value_error(self):
        data = b"some reasonable input data here"
        blob = huffman_compress(data)
        with pytest.raises(ValueError):
            huffman_decompress(blob[:-2])
        # A bit count short of the payload exhausts the stream early.
        bits = int.from_bytes(blob[4:8], "big")
        short = blob[:4] + (bits - 9).to_bytes(4, "big") + blob[8:]
        with pytest.raises(ValueError):
            huffman_decompress(short)

    def test_truncated_payload(self):
        blob = huffman_compress(b"some reasonable input data here")
        with pytest.raises((ValueError, IndexError)):
            huffman_decompress(blob[:-2])


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=512))
def test_huffman_roundtrip_property(data):
    assert huffman_decompress(huffman_compress(data)) == data

"""Property-based tests over the extension subsystems (hypothesis)."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AddressScrambledEngine,
    GeneralInstrumentEngine,
    IntegrityShieldEngine,
    MerkleTreeEngine,
    StreamCipherEngine,
)
from repro.core.engine import MemoryPort
from repro.crypto import AddressScrambler, DRBG
from repro.sim import Bus, MainMemory, MemoryConfig
from repro.traces import Access, AccessKind, iter_trace, save_trace

KEY = b"0123456789abcdef"
KEY24 = b"0123456789abcdef01234567"
MAC = b"property-mac-key"


def make_port(size=1 << 17):
    return MemoryPort(MainMemory(MemoryConfig(size=size)), Bus())


@settings(max_examples=15, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 31), st.integers(0, 255)),
        min_size=1, max_size=10,
    ),
    reads=st.lists(st.integers(0, 31), min_size=1, max_size=10),
)
def test_merkle_random_write_read_sequences(writes, reads):
    """Any interleaving of writes and verified fills stays consistent and
    never raises a false tamper alarm."""
    engine = MerkleTreeEngine(
        StreamCipherEngine(KEY, line_size=32), mac_key=MAC,
        region_base=0, region_size=1024, tree_base=0x10000,
        node_cache_size=4,
    )
    port = make_port()
    image = bytearray(1024)
    engine.install_image(port.memory, 0, bytes(image))
    for line_idx, value in writes:
        data = bytes([value] * 32)
        engine.write_line(port, line_idx * 32, data)
        image[line_idx * 32: (line_idx + 1) * 32] = data
    for line_idx in reads:
        line, _ = engine.fill_line(port, line_idx * 32, 32)
        assert line == bytes(image[line_idx * 32: (line_idx + 1) * 32])
    assert engine.verdicts.tampers == 0


@settings(max_examples=15, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=16),
    size_pow=st.integers(2, 10),
)
def test_scrambler_always_bijective(key, size_pow):
    size = 1 << size_pow
    scrambler = AddressScrambler(key, size=size)
    image = [scrambler.scramble(a) for a in range(size)]
    assert sorted(image) == list(range(size))
    for a in range(0, size, max(1, size // 16)):
        assert scrambler.unscramble(scrambler.scramble(a)) == a


@settings(max_examples=10, deadline=None)
@given(
    stores=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 255)),
        min_size=1, max_size=8,
    ),
)
def test_scrambled_engine_store_consistency(stores):
    engine = AddressScrambledEngine(
        StreamCipherEngine(KEY, line_size=32), addr_key=b"addr",
        region_lines=64,
    )
    port = make_port()
    engine.install_image(port.memory, 0, bytes(64 * 32))
    expected = bytearray(64 * 32)
    for line_idx, value in stores:
        data = bytes([value] * 32)
        engine.write_line(port, line_idx * 32, data)
        expected[line_idx * 32: (line_idx + 1) * 32] = data
    for line_idx, _ in stores:
        line, _ = engine.fill_line(port, line_idx * 32, 32)
        assert line == bytes(expected[line_idx * 32: (line_idx + 1) * 32])


@settings(max_examples=10, deadline=None)
@given(
    reorder=st.booleans(),
    line_indices=st.lists(st.integers(0, 15), min_size=1, max_size=6),
    seed=st.integers(0, 1000),
)
def test_gi_fill_matches_image_any_order(reorder, line_indices, seed):
    engine = GeneralInstrumentEngine(
        KEY24, region_size=256, authenticate=False, reorder=reorder,
    )
    port = make_port()
    image = DRBG(seed).random_bytes(512)
    engine.install_image(port.memory, 0, image)
    for idx in line_indices:
        addr = idx * 32
        line, _ = engine.fill_line(port, addr, 32)
        assert line == image[addr: addr + 32]


@settings(max_examples=15, deadline=None)
@given(
    versioned=st.booleans(),
    values=st.lists(st.integers(0, 255), min_size=1, max_size=5),
)
def test_integrity_repeated_rewrites_verify(versioned, values):
    engine = IntegrityShieldEngine(
        StreamCipherEngine(KEY, line_size=32), mac_key=MAC,
        tag_region_base=0x8000, versioned=versioned,
    )
    port = make_port()
    engine.install_image(port.memory, 0, bytes(256))
    for value in values:
        engine.write_line(port, 32, bytes([value] * 32))
        line, _ = engine.fill_line(port, 32, 32)
        assert line == bytes([value] * 32)
    assert engine.verdicts.tampers == 0


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(
        st.tuples(
            st.sampled_from(list(AccessKind)),
            st.integers(0, 0xFFFFFF),
            st.integers(1, 64),
        ),
        max_size=50,
    ),
)
def test_trace_io_roundtrip_property(records):
    trace = [Access(kind, addr, size) for kind, addr, size in records]
    buf = io.StringIO()
    save_trace(trace, buf)
    buf.seek(0)
    assert list(iter_trace(buf)) == trace

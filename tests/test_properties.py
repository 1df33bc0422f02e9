"""Cross-cutting property-based tests (hypothesis) on the core invariants.

Invariants exercised:
* every engine decrypts what it encrypted, at any address, for any line;
* external memory after any store/flush sequence decrypts to what the
  system thinks it wrote (the functional-consistency invariant);
* the cache never exceeds its capacity and never double-caches a line;
* encryption engines never *lose* cycles (secured >= baseline);
* AES/DES encrypt-decrypt are inverse permutations over random blocks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AegisEngine,
    BestEngine,
    DS5002FPEngine,
    DS5240Engine,
    GilmontEngine,
    StreamCipherEngine,
    XomAesEngine,
)
from repro.core.registry import engine_names, make_engine
from repro.crypto import AES, DES, DRBG
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import Access, AccessKind

from .reference_model import store

KEY16 = b"0123456789abcdef"
KEY24 = b"0123456789abcdef01234567"

ENGINE_BUILDERS = [
    lambda: XomAesEngine(KEY16),
    lambda: AegisEngine(KEY16),
    lambda: GilmontEngine(KEY24),
    lambda: BestEngine(KEY16),
    lambda: DS5002FPEngine(KEY16),
    lambda: DS5240Engine(KEY16),
    lambda: StreamCipherEngine(KEY16, line_size=32),
]


@settings(max_examples=20, deadline=None)
@given(
    engine_idx=st.integers(0, len(ENGINE_BUILDERS) - 1),
    line_index=st.integers(0, 1 << 14),
    seed=st.integers(0, 2 ** 32),
)
def test_engine_line_roundtrip(engine_idx, line_index, seed):
    engine = ENGINE_BUILDERS[engine_idx]()
    addr = line_index * 32
    line = DRBG(seed).random_bytes(32)
    assert engine.decrypt_line(addr, engine.encrypt_line(addr, line)) == line


def _check_read_plaintext(name, seed):
    # The Merkle tree protects exactly its installed region.
    engine = make_engine(
        name, **({"region_size": 1024} if name == "merkle-stream" else {}))
    system = SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=512, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
    )
    image = DRBG(seed).random_bytes(1024)
    system.install_image(0, image)
    assert system.read_plaintext(0, 1024) == image
    assert system.read_plaintext(0x40, 100) == image[0x40: 0x40 + 100]
    assert system.read_plaintext(0x45, 0) == b""
    assert system.read_plaintext(0x40, 0) == b""


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(engine_names()), seed=st.integers(0, 2 ** 32))
def test_engine_install_matches_read_plaintext(name, seed):
    _check_read_plaintext(name, seed)


@pytest.mark.parametrize("name", engine_names())
def test_read_plaintext_every_registry_engine(name):
    # The hypothesis draw above samples engines; this pins each one.
    _check_read_plaintext(name, seed=2005)


@settings(max_examples=15, deadline=None)
@given(
    engine_idx=st.integers(0, len(ENGINE_BUILDERS) - 1),
    writes=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 255)),
        min_size=1, max_size=12,
    ),
)
def test_store_flush_consistency(engine_idx, writes):
    """Whatever sequence of stores the CPU performs, flushing leaves the
    external image decrypting to exactly the final values."""
    engine = ENGINE_BUILDERS[engine_idx]()
    system = SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=256, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 16),
    )
    system.install_image(0, bytes(512))
    expected = bytearray(512)
    for line_idx, value in writes:
        addr = line_idx * 32
        payload = bytes([value] * 4)
        store(system, addr, payload)
        expected[addr: addr + 4] = payload
    system.flush()
    assert system.read_plaintext(0, 512) == bytes(expected)


@settings(max_examples=30, deadline=None)
@given(
    addrs=st.lists(st.integers(0, 255), min_size=1, max_size=200),
    write_mask=st.integers(0, 2 ** 16),
)
def test_cache_capacity_invariant(addrs, write_mask):
    system = SecureSystem(
        cache_config=CacheConfig(size=256, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 16))
    cache = system.cache
    for i, line_idx in enumerate(addrs):
        is_write = bool((write_mask >> (i % 16)) & 1)
        system.step(Access(AccessKind.STORE if is_write else AccessKind.LOAD,
                           line_idx * 32))
        occupancy = sum(len(s) for s in cache._sets)
        assert occupancy <= cache.config.size // cache.config.line_size
        for cache_set in cache._sets:
            assert len(cache_set) <= cache.config.associativity
            assert len(set(cache_set)) == len(cache_set)
        assert cache._dirty <= {line for s in cache._sets for line in s}
        assert set(system._line_data) == {line for s in cache._sets
                                          for line in s}
    assert cache.hits + cache.misses == len(addrs)


@settings(max_examples=30, deadline=None)
@given(
    addrs=st.lists(st.integers(0, 1023), min_size=1, max_size=100),
)
def test_secured_never_faster(addrs):
    """An encryption engine can only add cycles."""
    trace = [Access(AccessKind.LOAD, a * 32) for a in addrs]
    baseline = SecureSystem(
        cache_config=CacheConfig(size=512, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 16),
    )
    secured = SecureSystem(
        engine=XomAesEngine(KEY16, functional=False),
        cache_config=CacheConfig(size=512, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 16),
    )
    baseline.run(list(trace))
    secured.run(list(trace))
    assert secured.cycles >= baseline.cycles


@settings(max_examples=50, deadline=None)
@given(block=st.binary(min_size=16, max_size=16),
       key=st.binary(min_size=16, max_size=16))
def test_aes_inverse_property(block, key):
    aes = AES(key)
    assert aes.decrypt_block(aes.encrypt_block(block)) == block
    assert aes.encrypt_block(aes.decrypt_block(block)) == block


@settings(max_examples=50, deadline=None)
@given(block=st.binary(min_size=8, max_size=8),
       key=st.binary(min_size=8, max_size=8))
def test_des_inverse_property(block, key):
    des = DES(key)
    assert des.decrypt_block(des.encrypt_block(block)) == block
    assert des.encrypt_block(des.decrypt_block(block)) == block


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 64))
def test_drbg_streams_are_prefix_consistent(seed, n):
    a = DRBG(seed).random_bytes(n)
    b = DRBG(seed).random_bytes(128)
    assert b[:n] == a

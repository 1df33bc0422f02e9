"""Set-associative cache: geometry, LRU, write policies, eviction flow.

The cache holds state only; its access semantics are the executor's.  So
each case runs accesses through a plaintext :class:`SecureSystem` and
checks the counters, the LRU lists in ``cache._sets`` (LRU first), the
dirty set and the bus stream the accesses caused.
"""

import pytest

from repro.sim import CacheConfig, MemoryConfig, SecureSystem, WritePolicy
from repro.traces import Access, AccessKind

from .reference_model import record_bus

STRIDE = 16 * 32    # same set of the default 16-set, 2-way, 32-byte cache


def make_system(**kwargs):
    """A plaintext system over the given cache, and its bus log."""
    defaults = dict(size=1024, line_size=32, associativity=2)
    defaults.update(kwargs)
    system = SecureSystem(cache_config=CacheConfig(**defaults),
                          mem_config=MemoryConfig(size=1 << 16))
    return system, record_bus(system)


def access(system, addr, is_write=False, size=4):
    """Run one access; returns whether it hit."""
    hits = system.cache.hits
    kind = AccessKind.STORE if is_write else AccessKind.LOAD
    system.step(Access(kind, addr, size))
    return system.cache.hits > hits


def ops(log):
    """The bus log as (op, addr, size)."""
    return [(op, addr, len(data)) for op, addr, data in log]


class TestGeometry:
    def test_num_sets(self):
        cfg = CacheConfig(size=1024, line_size=32, associativity=2)
        assert cfg.num_sets == 16

    def test_direct_mapped(self):
        cfg = CacheConfig(size=1024, line_size=32, associativity=1)
        assert cfg.num_sets == 32

    def test_fully_associative(self):
        cfg = CacheConfig(size=1024, line_size=32, associativity=32)
        assert cfg.num_sets == 1

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, line_size=32, associativity=2)
        with pytest.raises(ValueError):
            CacheConfig(size=0)
        with pytest.raises(ValueError):
            CacheConfig(size=1024, line_size=24, associativity=1)


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        system, log = make_system()
        assert not access(system, 0x100)
        assert ops(log) == [("read", 0x100, 32)]
        assert access(system, 0x100)
        assert ops(log) == [("read", 0x100, 32)]
        assert system.cache._sets[0x100 // 32 % 16] == [0x100 // 32]

    def test_same_line_different_offsets_hit(self):
        system, log = make_system(line_size=32)
        access(system, 0x100)
        assert access(system, 0x11F, size=1)
        assert not access(system, 0x120)
        assert ops(log) == [("read", 0x100, 32), ("read", 0x120, 32)]

    def test_contains_without_lru_update(self):
        system, _ = make_system()
        access(system, 0)
        access(system, STRIDE)
        assert system.cache.contains(0)
        assert not system.cache.contains(0x200 + STRIDE)
        # contains() left line 0 at the LRU end.
        assert system.cache._sets[0] == [0, STRIDE // 32]

    def test_stats_counters(self):
        system, _ = make_system()
        access(system, 0)
        access(system, 0)
        access(system, 64)
        cache = system.cache
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.miss_rate == pytest.approx(2 / 3)
        assert system.report("x").cache_misses == 2

    def test_reset_stats(self):
        system, _ = make_system()
        access(system, 0)
        system.cache.reset_stats()
        assert system.cache.hits == system.cache.misses == 0


class TestLRU:
    def test_lru_victim_selection(self):
        # 2-way: lines mapping to set 0 are multiples of 16 lines.
        system, log = make_system()
        access(system, 0 * STRIDE)
        access(system, 1 * STRIDE)
        access(system, 0 * STRIDE)          # touch 0: now MRU
        assert system.cache._sets[0] == [STRIDE // 32, 0]
        access(system, 2 * STRIDE)          # evicts line 1
        cache = system.cache
        assert cache.evictions == 1
        assert cache._sets[0] == [0, 2 * STRIDE // 32]
        assert cache.contains(0)
        assert not cache.contains(STRIDE)
        assert STRIDE // 32 not in system._line_data
        assert ops(log) == [("read", a * STRIDE, 32) for a in (0, 1, 2)]

    def test_associativity_capacity(self):
        system, _ = make_system()
        access(system, 0 * STRIDE)
        access(system, 1 * STRIDE)
        assert access(system, 0 * STRIDE)
        assert access(system, 1 * STRIDE)
        assert system.cache.evictions == 0


class TestWriteBack:
    def test_store_hit_marks_dirty_no_traffic(self):
        system, log = make_system()
        access(system, 0x100)
        assert access(system, 0x100, is_write=True)
        assert 0x100 // 32 in system.cache._dirty
        assert ops(log) == [("read", 0x100, 32)]

    def test_dirty_eviction_writes_back(self):
        system, log = make_system()
        access(system, 0, is_write=True)    # allocate dirty
        access(system, STRIDE)
        line = bytes(system._line_data[0])
        access(system, 2 * STRIDE)
        assert system.cache.writebacks == 1
        assert 0 not in system.cache._dirty
        assert log[-2] == ("write", 0, line)
        assert ops(log)[-1] == ("read", 2 * STRIDE, 32)

    def test_clean_eviction_no_writeback(self):
        system, log = make_system()
        access(system, 0)
        access(system, STRIDE)
        access(system, 2 * STRIDE)
        assert system.cache.evictions == 1
        assert system.cache.writebacks == 0
        assert not system.cache.contains(0)
        assert all(op == "read" for op, _, _ in log)

    def test_store_miss_allocates(self):
        system, log = make_system()
        assert not access(system, 0x300, is_write=True)
        assert system.cache.contains(0x300)
        assert 0x300 // 32 in system.cache._dirty
        assert ops(log) == [("read", 0x300, 32)]

    def test_flush_returns_dirty_lines(self):
        system, log = make_system()
        access(system, 0, is_write=True)
        access(system, 64)
        assert system.cache.flush() == [0]
        assert not system.cache.contains(0)
        assert not system.cache.contains(64)
        assert not system.cache._dirty
        # The system's own flush writes the dirty line to memory.
        system, log = make_system()
        access(system, 0, is_write=True)
        access(system, 64)
        line = bytes(system._line_data[0])
        system.flush()
        assert log[-1] == ("write", 0, line)
        assert system.cache.writebacks == 1


class TestWriteThrough:
    def test_store_hit_propagates(self):
        system, log = make_system(write_policy=WritePolicy.WRITE_THROUGH)
        access(system, 0x100)
        assert access(system, 0x100, is_write=True)
        assert not system.cache._dirty
        assert ops(log) == [("read", 0x100, 32), ("write", 0x100, 4)]

    def test_no_write_allocate_bypasses(self):
        system, log = make_system(
            write_policy=WritePolicy.WRITE_THROUGH, write_allocate=False
        )
        assert not access(system, 0x100, is_write=True)
        assert system.cache.misses == 1
        assert not system.cache.contains(0x100)
        assert ops(log) == [("write", 0x100, 4)]

    def test_write_allocate_fills_and_propagates(self):
        system, log = make_system(write_policy=WritePolicy.WRITE_THROUGH)
        assert not access(system, 0x100, is_write=True)
        assert system.cache.contains(0x100)
        assert ops(log) == [("read", 0x100, 32), ("write", 0x100, 4)]

    def test_no_writebacks_ever(self):
        system, log = make_system(write_policy=WritePolicy.WRITE_THROUGH)
        for i in range(4):
            access(system, i * STRIDE, is_write=True)
        system.flush()
        assert system.cache.writebacks == 0
        assert system.cache.evictions == 2
        assert [size for op, _, size in ops(log) if op == "write"] == [4] * 4

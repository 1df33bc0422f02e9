"""EDU placement (Figure 7 / E12): per-access cost and SRAM doubling."""

import pytest

from repro.core import CpuCacheStreamEngine, StreamCipherEngine, compare_placements
from repro.sim import CacheConfig, MemoryConfig, sram_gates
from repro.traces import make_workload

KEY = b"0123456789abcdef"


class TestCpuCacheEngine:
    def test_functional_roundtrip(self):
        engine = CpuCacheStreamEngine(KEY)
        line = bytes(range(32))
        assert engine.decrypt_line(0x40, engine.encrypt_line(0x40, line)) == line

    def test_stored_pad_one_cycle_per_access(self):
        engine = CpuCacheStreamEngine(KEY, keystream_on_chip=True)
        assert engine.per_access_cycles() == 1

    def test_generated_pad_costs_generator_latency(self):
        engine = CpuCacheStreamEngine(KEY, keystream_on_chip=False)
        assert engine.per_access_cycles() == engine.unit.latency

    def test_keystream_store_equals_cache_size(self):
        """§4: 'an on-chip memory equivalent to the cache memory in term of
        size'."""
        cache_size = 16 * 1024
        engine = CpuCacheStreamEngine(KEY, cache_size=cache_size)
        area = engine.area()
        assert area.items["keystream-store"] == sram_gates(cache_size)

    def test_generated_variant_has_no_store(self):
        engine = CpuCacheStreamEngine(KEY, keystream_on_chip=False)
        assert "keystream-store" not in engine.area().items


class TestComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        trace = make_workload("mixed", n=3000)
        return compare_placements(
            trace,
            cache_config=CacheConfig(size=4096, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 21, latency=40),
        )

    def test_cpu_cache_no_better_than_cache_memory(self, comparison):
        """§4: 'this scheme seems to provide no benefit in term of
        performance'."""
        overheads = comparison.overheads()
        assert overheads["cpu-cache stored pad (7b)"] >= \
            overheads["cache-memory (7a)"] - 1e-9

    def test_generated_pad_is_catastrophic(self, comparison):
        """Paying the generator latency on every access dwarfs everything."""
        overheads = comparison.overheads()
        assert overheads["cpu-cache generated pad (7b)"] > \
            5 * max(overheads["cache-memory (7a)"], 0.001)

    def test_stored_pad_pays_the_sram_premium(self, comparison):
        """The stored-pad variant buys its speed with a keystream store as
        large as the cache — the doubling §5 calls unaffordable."""
        stored = comparison.areas["cpu-cache stored pad (7b)"]
        generated = comparison.areas["cpu-cache generated pad (7b)"]
        assert stored - generated == sram_gates(4096)

    def test_baseline_is_fastest(self, comparison):
        results = list(comparison.results.values())
        # One plaintext baseline prices all three designs.
        assert len({id(r.baseline) for r in results}) == 1
        assert all(r.baseline.cycles <= r.secured.cycles for r in results)

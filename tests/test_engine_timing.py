"""Engine timing models: the latency relationships the survey asserts."""

import pytest

from repro.core import (
    AegisEngine,
    DS5240Engine,
    GilmontEngine,
    StreamCipherEngine,
    XomAesEngine,
)
from repro.analysis import measure_overhead
from repro.sim import (
    CacheConfig,
    MemoryConfig,
    SecureSystem,
    TDES_ITERATIVE,
)
from repro.traces import (
    iter_branchy_code,
    iter_sequential_code,
    iter_write_burst,
)
from repro.crypto import DRBG

KEY16 = b"0123456789abcdef"
KEY24 = b"0123456789abcdef01234567"


def timing_system(engine, latency=40):
    return SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 20, latency=latency),
    )


class TestStreamVsBlock:
    """Figure 2: 'the key stream generation can be parallelised with
    external data fetch' vs 'deciphering cannot start until a complete
    block has been received'."""

    def test_stream_cheaper_than_block_on_reads(self):
        trace = list(iter_sequential_code(2000, code_size=1 << 16))
        stream = measure_overhead(
            lambda: StreamCipherEngine(KEY16, functional=False), list(trace),
            cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        ).overhead
        block = measure_overhead(
            lambda: XomAesEngine(KEY16, functional=False), list(trace),
            cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        ).overhead
        assert stream < block

    def test_stream_overlap_absorbs_pad_cost(self):
        """With memory slower than pad generation, a pad miss costs ~1
        cycle on the critical path."""
        engine = StreamCipherEngine(KEY16, functional=False,
                                    pad_ahead_depth=0, pad_cache_lines=1)
        extra = engine.read_extra_cycles(0x40, 32, mem_cycles=44)
        assert extra == 1

    def test_stream_exposed_when_memory_fast(self):
        """With a very fast memory the pad no longer hides."""
        engine = StreamCipherEngine(KEY16, functional=False,
                                    pad_ahead_depth=0, pad_cache_lines=1)
        extra = engine.read_extra_cycles(0x40, 32, mem_cycles=4)
        assert extra > 1

    def test_pad_cache_hit_is_one_cycle(self):
        engine = StreamCipherEngine(KEY16, line_size=32, pad_ahead_depth=2)
        system = timing_system(engine)
        system.install_image(0, bytes(256))
        from repro.traces import Access, AccessKind
        system.step(Access(AccessKind.FETCH, 0))       # miss: pad generated
        system.step(Access(AccessKind.FETCH, 32))      # pad-ahead hit
        assert engine.stats.pad_hits >= 1

    def test_block_engine_pays_pipeline_latency(self):
        engine = XomAesEngine(KEY16, functional=False)
        extra = engine.read_extra_cycles(0, 32, mem_cycles=44)
        assert extra == engine.unit.latency  # fully pipelined: fill latency


class TestXomFigures:
    def test_published_latency(self):
        engine = XomAesEngine(KEY16)
        assert engine.unit.latency == 14
        assert engine.unit.initiation_interval == 1

    def test_latency_alone_underreports(self):
        """E10's point: identical 14-cycle latency, very different system
        overhead across workloads."""
        engine_factory = lambda: XomAesEngine(KEY16, functional=False)
        seq = measure_overhead(
            engine_factory, list(iter_sequential_code(10000, code_size=4096)),
            cache_config=CacheConfig(size=8192, line_size=32, associativity=4),
        ).overhead
        hostile = measure_overhead(
            engine_factory,
            list(iter_branchy_code(2000, DRBG(1), p_taken=0.9,
                                   code_size=1 << 20)),
            cache_config=CacheConfig(size=8192, line_size=32, associativity=4),
        ).overhead
        assert hostile > 4 * max(seq, 1e-9)


class TestGilmontPrediction:
    def test_sequential_code_under_2_5_percent(self):
        """The paper's claim, in its own scope: static sequential code."""
        trace = list(iter_sequential_code(4000, code_size=1 << 18))
        value = measure_overhead(
            lambda: GilmontEngine(KEY24, functional=False), list(trace),
            cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        ).overhead
        assert value < 0.025

    def test_branchy_code_defeats_predictor(self):
        trace = list(iter_branchy_code(3000, DRBG(2), p_taken=0.5,
                                       code_size=1 << 18))
        value = measure_overhead(
            lambda: GilmontEngine(KEY24, functional=False), list(trace),
            cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        ).overhead
        assert value > 0.05

    def test_prediction_stats(self):
        engine = GilmontEngine(KEY24, functional=False)
        system = timing_system(engine)
        for access in iter_sequential_code(512, code_size=1 << 16):
            system.step(access)
        assert engine.stats.prefetch_hits > engine.stats.prefetch_misses

    def test_deeper_prediction_helps_on_streams(self):
        shallow = GilmontEngine(KEY24, prediction_depth=0, functional=False)
        deep = GilmontEngine(KEY24, prediction_depth=2, functional=False)
        trace = list(iter_sequential_code(1000, code_size=1 << 16))
        o_shallow = measure_overhead(lambda: shallow, list(trace)).overhead
        o_deep = measure_overhead(lambda: deep, list(trace)).overhead
        assert o_deep < o_shallow


class TestAegisTiming:
    def test_read_includes_iv_generation(self):
        engine = AegisEngine(KEY16, functional=False)
        xom = XomAesEngine(KEY16, functional=False)
        assert engine.read_extra_cycles(0, 32, 44) > \
            xom.read_extra_cycles(0, 32, 44)

    def test_write_chain_is_serial(self):
        """CBC encryption cannot pipeline blocks within the line."""
        engine = AegisEngine(KEY16, functional=False)
        one = engine.write_extra_cycles(0, 16)
        two = engine.write_extra_cycles(0, 32)
        assert two - one == engine.unit.latency


class TestWritePenalty:
    """§2.2's five-step sub-block write penalty (E04)."""

    def test_small_writes_trigger_rmw(self):
        from repro.sim import WritePolicy
        engine = DS5240Engine(KEY16, functional=False)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(
                size=1024, line_size=32, associativity=2,
                write_policy=WritePolicy.WRITE_THROUGH, write_allocate=False,
            ),
            mem_config=MemoryConfig(size=1 << 20),
            write_buffer=False,
        )
        for access in iter_write_burst(16, base=0, write_size=4, stride=64):
            system.step(access)
        assert engine.stats.rmw_operations == 16

    def test_block_aligned_writes_skip_rmw(self):
        from repro.sim import WritePolicy
        engine = DS5240Engine(KEY16, functional=False)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(
                size=1024, line_size=32, associativity=2,
                write_policy=WritePolicy.WRITE_THROUGH, write_allocate=False,
            ),
            mem_config=MemoryConfig(size=1 << 20),
        )
        for access in iter_write_burst(16, base=0, write_size=8, stride=64):
            system.step(access)
        assert engine.stats.rmw_operations == 0

    def test_rmw_costs_more_than_aligned(self):
        engine = DS5240Engine(KEY16, functional=False, unit=TDES_ITERATIVE)
        from repro.core.engine import MemoryPort
        from repro.sim import Bus, MainMemory
        port = MemoryPort(MainMemory(MemoryConfig(size=4096)), Bus())
        aligned = engine.write_partial(port, 0, bytes(8), 32)
        small = engine.write_partial(port, 8, bytes(4), 32)
        assert small > aligned

    def test_byte_granular_engine_never_rmws(self):
        from repro.core import DS5002FPEngine
        from repro.core.engine import MemoryPort
        from repro.sim import Bus, MainMemory
        engine = DS5002FPEngine(KEY16, functional=False)
        port = MemoryPort(MainMemory(MemoryConfig(size=4096)), Bus())
        engine.write_partial(port, 3, b"\x01", 32)
        assert engine.stats.rmw_operations == 0

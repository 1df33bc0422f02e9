"""Compression+encryption engine (Figure 8 / E13)."""

import pytest

from repro.core import CompressedEncryptionEngine
from repro.core.engine import MemoryPort
from repro.sim import Bus, CacheConfig, MainMemory, MemoryConfig, SecureSystem
from repro.traces import (
    Access,
    AccessKind,
    iter_sequential_code,
    synthetic_code_image,
)

KEY = b"0123456789abcdef"


def make_port(size=1 << 18):
    return MemoryPort(MainMemory(MemoryConfig(size=size)), Bus())


@pytest.fixture(scope="module")
def code_image():
    return synthetic_code_image(size=8 * 1024)


class TestFunctional:
    def test_fill_decompresses_correctly(self, code_image):
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, code_image, line_size=32)
        for addr in (0, 32, 1024, len(code_image) - 32):
            line, _ = engine.fill_line(port, addr, 32)
            assert line == code_image[addr: addr + 32]

    def test_memory_is_ciphertext_and_compressed(self, code_image):
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, code_image, line_size=32)
        packed_len = sum(length for _, length in engine._lat.values())
        assert packed_len < len(code_image)
        assert port.memory.dump(0, 64) != code_image[:64]

    def test_density_gain(self, code_image):
        """The survey quotes ≈35% density increase for CodePack."""
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, code_image, line_size=32)
        assert engine.density_gain > 0.15
        assert engine.compression_ratio < 0.9

    def test_data_region_falls_back_to_stream(self, code_image):
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, code_image, line_size=32)
        data_addr = 0x10000
        engine.write_line(port, data_addr, bytes(range(32)))
        line, _ = engine.fill_line(port, data_addr, 32)
        assert line == bytes(range(32))
        assert engine.uncompressed_fills == 1

    def test_code_region_is_read_only(self, code_image):
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, code_image, line_size=32)
        with pytest.raises(ValueError):
            engine.write_line(port, 0, bytes(32))
        with pytest.raises(ValueError):
            engine.write_partial(port, 4, b"\x00", 32)

    def test_line_size_mismatch_rejected(self, code_image):
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        with pytest.raises(ValueError):
            engine.install_image(
                MainMemory(MemoryConfig(size=1 << 18)), 0, code_image,
                line_size=64,
            )


class TestTiming:
    def test_fewer_bus_beats_for_code(self, code_image):
        """Compressed fills move fewer bytes over the bus."""
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, code_image, line_size=32)
        before = port.bus.bytes_transferred
        engine.fill_line(port, 0, 32)
        moved = port.bus.bytes_transferred - before
        assert moved < 32

    def test_wins_with_slow_memory_loses_with_fast(self, code_image):
        """The survey's '+/- 10%': the sign depends on the memory speed."""
        from repro.analysis import measure_overhead

        trace = list(iter_sequential_code(3000, code_size=len(code_image)))
        cache = CacheConfig(size=512, line_size=32, associativity=2)

        def run(latency):
            return measure_overhead(
                lambda: CompressedEncryptionEngine(KEY, line_size=32,
                                                   functional=False),
                trace, image=code_image, cache_config=cache,
                mem_config=MemoryConfig(size=1 << 18, latency=latency,
                                        bus_width=2, cycles_per_beat=2),
            ).overhead

        slow = run(4)     # transfer dominates: compression wins
        assert slow < 0.0

    def test_stats_split_fills(self, code_image):
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 18),
        )
        system.install_image(0, code_image)
        for access in iter_sequential_code(500, code_size=len(code_image)):
            system.step(access)
        assert engine.compressed_fills > 0
        assert engine.uncompressed_fills == 0

    def test_stats_count_every_line(self, code_image):
        # Data-region fills and writes go through the inner stream engine,
        # but the report reads the outer engine's stats.
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        port = make_port()
        engine.install_image(port.memory, 0, code_image, line_size=32)
        data = [0x10000 + 32 * i for i in range(4)]
        for addr in data:
            engine.write_line(port, addr, bytes(range(32)))
        filled = engine.fill_lines(port, [0, data[0], 32, data[1]], 32)
        assert [line for line, _ in filled] == [
            code_image[:32], bytes(range(32)), code_image[32:64],
            bytes(range(32)),
        ]
        assert (engine.compressed_fills, engine.uncompressed_fills) == (2, 2)
        assert engine.stats.lines_decrypted == 4
        assert engine.stats.lines_encrypted == 4

    def test_report_counts_data_lines(self, code_image):
        engine = CompressedEncryptionEngine(KEY, line_size=32)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=256, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 18),
        )
        system.install_image(0, code_image)
        data = 0x10000
        for i in range(64):
            system.step(Access(AccessKind.FETCH, 32 * i))
            system.step(Access(AccessKind.STORE, data + 32 * i, 4))
        system.flush()
        report = system.report("compress")
        assert report.lines_decrypted == (engine.compressed_fills
                                          + engine.uncompressed_fills)
        assert engine.uncompressed_fills == 64
        assert report.lines_encrypted == 64

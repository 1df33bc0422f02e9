"""VLSI secure-DMA page engine: page faults, residency, dirty writeback
(Figure 4 / E07)."""

import pytest

from repro.core import VlsiDmaEngine
from repro.core.engine import MemoryPort
from repro.sim import Bus, CacheConfig, MainMemory, MemoryConfig, SecureSystem
from repro.traces import Access, AccessKind, iter_sequential_code

KEY = b"0123456789abcdef01234567"


def make_engine(**kwargs):
    defaults = dict(page_size=256, buffer_pages=2)
    defaults.update(kwargs)
    return VlsiDmaEngine(KEY, **defaults)


def make_port(size=1 << 16):
    return MemoryPort(MainMemory(MemoryConfig(size=size)), Bus())


class TestFunctional:
    IMAGE = bytes((i * 11 + 1) & 0xFF for i in range(2048))

    def test_install_and_read_plain(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, self.IMAGE)
        assert engine.read_plain(memory, 100, 64) == self.IMAGE[100:164]

    def test_memory_is_ciphertext(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, self.IMAGE)
        assert memory.dump(0, 256) != self.IMAGE[:256]

    def test_fill_line_returns_plaintext(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        line, _ = engine.fill_line(port, 512, 32)
        assert line == self.IMAGE[512:544]

    def test_write_roundtrip_through_flush(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        engine.write_line(port, 256, bytes(range(32)))
        engine.flush(port)
        assert engine.read_plain(port.memory, 256, 32) == bytes(range(32))

    def test_unaligned_base_rejected(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        with pytest.raises(ValueError):
            engine.install_image(memory, 100, self.IMAGE)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            VlsiDmaEngine(KEY, page_size=100)
        with pytest.raises(ValueError):
            VlsiDmaEngine(KEY, buffer_pages=0)


class TestPaging:
    def test_first_touch_faults(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, bytes(2048))
        engine.fill_line(port, 0, 32)
        assert engine.page_faults == 1

    def test_resident_page_no_fault(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, bytes(2048))
        engine.fill_line(port, 0, 32)
        engine.fill_line(port, 64, 32)   # same page
        assert engine.page_faults == 1

    def test_resident_access_is_cheap(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, bytes(2048))
        _, fault_cycles = engine.fill_line(port, 0, 32)
        _, hit_cycles = engine.fill_line(port, 64, 32)
        assert hit_cycles == engine.sram_latency
        assert fault_cycles > 50 * hit_cycles

    def test_lru_eviction(self):
        engine = make_engine(buffer_pages=2)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(2048))
        engine.fill_line(port, 0, 32)      # page 0
        engine.fill_line(port, 256, 32)    # page 1
        engine.fill_line(port, 512, 32)    # page 2 evicts page 0
        engine.fill_line(port, 0, 32)      # page 0 faults again
        assert engine.page_faults == 4

    def test_dirty_page_written_back(self):
        engine = make_engine(buffer_pages=1)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(2048))
        engine.write_line(port, 0, b"\xEE" * 32)
        engine.fill_line(port, 256, 32)  # evicts dirty page 0
        assert engine.page_writebacks == 1
        assert engine.read_plain(port.memory, 0, 32) == b"\xEE" * 32

    def test_clean_page_not_written_back(self):
        engine = make_engine(buffer_pages=1)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(2048))
        engine.fill_line(port, 0, 32)
        engine.fill_line(port, 256, 32)
        assert engine.page_writebacks == 0

    def test_partial_write_absorbed(self):
        """The page buffer removes the sub-block write penalty entirely."""
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, bytes(2048))
        engine.write_partial(port, 5, b"\x99", 32)
        assert engine.stats.rmw_operations == 0
        engine.flush(port)
        assert engine.read_plain(port.memory, 5, 1) == b"\x99"


class TestSystemLevel:
    def test_sequential_amortizes_faults(self):
        engine = make_engine(page_size=1024, buffer_pages=4)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 16),
        )
        system.install_image(0, bytes(4096))
        for access in iter_sequential_code(1000, code_size=4096):
            system.step(access)
        # 4 pages cover the whole image: at most 4 faults.
        assert engine.page_faults == 4

    def test_area_includes_page_buffer(self):
        small = make_engine(buffer_pages=2).area().total
        large = make_engine(buffer_pages=16).area().total
        assert large > small

"""Memory, bus, pipeline timing and area estimation."""

import pytest

from repro.attacks import BusProbe
from repro.sim import (
    GATES,
    AreaEstimate,
    Bus,
    BusTransaction,
    MainMemory,
    MemoryConfig,
    PipelinedUnit,
    TDES_ITERATIVE,
    XOM_AES_PIPE,
    combine,
    sram_gates,
)
from repro.sim.memory import PAGE_SIZE


class TestMemoryConfig:
    def test_beats(self):
        cfg = MemoryConfig(bus_width=8)
        assert cfg.beats(32) == 4
        assert cfg.beats(33) == 5
        assert cfg.beats(1) == 1

    def test_read_cycles(self):
        cfg = MemoryConfig(latency=40, bus_width=8, cycles_per_beat=1)
        assert cfg.read_cycles(32) == 44

    def test_slow_bus(self):
        cfg = MemoryConfig(latency=10, bus_width=4, cycles_per_beat=2)
        assert cfg.read_cycles(32) == 10 + 8 * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(size=0)
        with pytest.raises(ValueError):
            MemoryConfig(latency=-1)
        with pytest.raises(ValueError):
            MemoryConfig(bus_width=0)


class TestMainMemory:
    def test_read_write(self):
        mem = MainMemory(MemoryConfig(size=1024))
        mem.write(10, b"hello")
        assert mem.read(10, 5) == b"hello"

    def test_initially_zero(self):
        mem = MainMemory(MemoryConfig(size=64))
        assert mem.read(0, 64) == bytes(64)

    def test_bounds_checked(self):
        mem = MainMemory(MemoryConfig(size=64))
        with pytest.raises(IndexError):
            mem.read(60, 8)
        with pytest.raises(IndexError):
            mem.write(-1, b"x")

    def test_counters(self):
        mem = MainMemory(MemoryConfig(size=64))
        mem.write(0, b"abcd")
        mem.read(0, 4)
        assert mem.reads == 1 and mem.writes == 1
        assert mem.bytes_read == 4 and mem.bytes_written == 4

    def test_load_and_dump_skip_counters(self):
        mem = MainMemory(MemoryConfig(size=64))
        mem.load_image(0, b"firmware")
        assert mem.dump(0, 8) == b"firmware"
        assert mem.reads == 0 and mem.writes == 0

    def test_touched_pages_record_writes_and_installs(self):
        mem = MainMemory(MemoryConfig(size=5 * PAGE_SIZE + 100))
        assert mem.touched_pages() == []
        mem.read(3 * PAGE_SIZE, 8)                  # reads touch nothing
        mem.write(PAGE_SIZE + 8, b"ab")
        mem.write(2 * PAGE_SIZE - 2, b"wxyz")       # straddles pages 1, 2
        mem.load_image(5 * PAGE_SIZE, b"tail")      # the short last page
        pages = mem.touched_pages()
        assert [addr for addr, _ in pages] == [
            PAGE_SIZE, 2 * PAGE_SIZE, 5 * PAGE_SIZE]
        assert [len(page) for _, page in pages] == [PAGE_SIZE, PAGE_SIZE, 100]
        assert all(mem.dump(addr, len(page)) == page for addr, page in pages)

    def test_default_memory_zero_at_both_ends(self):
        mem = MainMemory()
        size = mem.config.size
        assert size == 1 << 22
        assert mem.read(0, 1) == b"\x00"
        assert mem.read(size - 1, 1) == b"\x00"

    def test_round_trip_across_page_boundary(self):
        mem = MainMemory(MemoryConfig(size=3 * 4096))
        data = bytes(range(64))
        mem.write(4096 - 32, data)
        assert mem.read(4096 - 32, 64) == data
        assert mem.dump(4096, 32) == data[32:]

    def test_read_and_dump_return_bytes(self):
        mem = MainMemory(MemoryConfig(size=64))
        mem.write(0, bytearray(b"abcd"))
        assert type(mem.read(0, 4)) is bytes
        assert type(mem.dump(0, 4)) is bytes

    def test_every_op_rejects_one_byte_past_the_end(self):
        mem = MainMemory(MemoryConfig(size=64))
        with pytest.raises(IndexError):
            mem.read(33, 32)
        with pytest.raises(IndexError):
            mem.write(33, bytes(32))
        with pytest.raises(IndexError):
            mem.load_image(33, bytes(32))
        with pytest.raises(IndexError):
            mem.dump(33, 32)
        assert mem.dump(32, 32) == bytes(32)

    def test_interposer_lengthening_a_read_rejected(self):
        mem = MainMemory(MemoryConfig(size=64))
        mem.attach_interposer(lambda op, addr, data: data + b"!")
        with pytest.raises(ValueError, match="read at 0x8: 32 bytes in, 33"):
            mem.read(8, 32)

    def test_interposer_lengthening_a_write_rejected(self):
        size = 1024
        mem = MainMemory(MemoryConfig(size=size))
        mem.attach_interposer(lambda op, addr, data: data + b"!")
        with pytest.raises(ValueError, match="write at 0x3e0: 32 bytes in"):
            mem.write(size - 32, bytes(range(32)))
        assert mem.dump(size - 32, 32) == bytes(32)


class TestBus:
    def test_probe_notification(self):
        probe = BusProbe()
        Bus(sink=probe).transfer("read", 0x40, b"\xde\xad", cycle=7)
        assert probe.transactions == [
            BusTransaction(op="read", addr=0x40, data=b"\xde\xad", cycle=7)]

    def test_stats(self):
        bus = Bus()
        bus.transfer("read", 0, b"1234", 0)
        bus.transfer("write", 4, b"56", 0)
        assert bus.transactions == 2
        assert bus.bytes_transferred == 6

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            Bus().transfer("steal", 0, b"", 0)


class TestPipelinedUnit:
    def test_time_for(self):
        unit = PipelinedUnit("u", latency=14, initiation_interval=1)
        assert unit.time_for(1) == 14
        assert unit.time_for(4) == 17
        assert unit.time_for(0) == 0

    def test_iterative_unit(self):
        unit = PipelinedUnit("u", latency=16, initiation_interval=16)
        assert unit.time_for(4) == 16 * 4

    def test_drain_pipelined_keeps_up(self):
        """Fully pipelined unit behind 1-cycle arrivals: just the latency."""
        assert XOM_AES_PIPE.drain_after_arrivals(8, arrival_interval=2) == 14

    def test_drain_backlog(self):
        """Iterative 3DES behind fast arrivals accumulates a backlog."""
        drain = TDES_ITERATIVE.drain_after_arrivals(4, arrival_interval=1)
        assert drain == 48 + 3 * 47

    def test_throughput(self):
        assert XOM_AES_PIPE.throughput_blocks_per_cycle == 1.0
        assert TDES_ITERATIVE.throughput_blocks_per_cycle == pytest.approx(1 / 48)

    def test_xom_published_figures(self):
        """The survey's quoted numbers: 14-cycle latency, 1 block/cycle."""
        assert XOM_AES_PIPE.latency == 14
        assert XOM_AES_PIPE.initiation_interval == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelinedUnit("u", latency=-1)
        with pytest.raises(ValueError):
            PipelinedUnit("u", latency=1, initiation_interval=0)


class TestArea:
    def test_add_block(self):
        est = AreaEstimate("test").add_block("des_iterative")
        assert est.total == GATES["des_iterative"]

    def test_add_block_count(self):
        est = AreaEstimate("test").add_block("byte_sbox", 4)
        assert est.total == 4 * GATES["byte_sbox"]

    def test_unknown_block(self):
        with pytest.raises(KeyError):
            AreaEstimate("test").add_block("warp_drive")

    def test_sram_scaling(self):
        assert sram_gates(1024) == 2 * sram_gates(512)
        assert sram_gates(0) == 0
        with pytest.raises(ValueError):
            sram_gates(-1)

    def test_combine(self):
        a = AreaEstimate("a").add("x", 100)
        b = AreaEstimate("b").add("y", 50)
        merged = combine("ab", a, b)
        assert merged.total == 150

    def test_str_renders(self):
        est = AreaEstimate("engine").add_block("aes_pipelined")
        text = str(est)
        assert "engine" in text and "aes_pipelined" in text

    def test_aegis_reported_figure(self):
        """The 300k-gate pipelined AES from [14] is the calibration point."""
        assert GATES["aes_pipelined"] == 300_000

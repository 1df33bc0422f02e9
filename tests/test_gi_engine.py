"""General Instrument engine: region chaining, random-access penalty,
keyed-hash authentication (Figure 5 / E08)."""

import pytest

from repro.core import AuthenticationError, GeneralInstrumentEngine
from repro.core.engine import MemoryPort
from repro.sim import Bus, CacheConfig, MainMemory, MemoryConfig, SecureSystem
from repro.traces import Access, AccessKind, iter_sequential_code
from repro.crypto import DRBG

KEY = b"0123456789abcdef01234567"


def make_engine(**kwargs):
    defaults = dict(region_size=256, line_size=32)
    defaults.update(kwargs)
    return GeneralInstrumentEngine(KEY, **defaults)


def make_port(size=1 << 16):
    return MemoryPort(MainMemory(MemoryConfig(size=size)), Bus())


class TestFunctional:
    IMAGE = bytes((i * 13 + 5) & 0xFF for i in range(1024))

    def test_install_and_read_plain(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, self.IMAGE)
        assert engine.read_plain(memory, 0, 1024) == self.IMAGE

    def test_memory_is_ciphertext(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, self.IMAGE)
        assert memory.dump(0, 256) != self.IMAGE[:256]

    def test_fill_line_returns_plaintext(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        line, _ = engine.fill_line(port, 64, 32)
        assert line == self.IMAGE[64:96]

    def test_write_line_roundtrip(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        new_line = bytes(range(200, 232))
        engine.write_line(port, 96, new_line)
        assert engine.read_plain(port.memory, 96, 32) == new_line
        # The rest of the region still decrypts correctly.
        assert engine.read_plain(port.memory, 0, 96) == self.IMAGE[:96]
        assert engine.read_plain(port.memory, 128, 128) == self.IMAGE[128:256]

    def test_cbc_hides_repetition(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, b"\xAA" * 512)
        ct = memory.dump(0, 512)
        blocks = [ct[i: i + 8] for i in range(0, 256, 8)]
        assert len(set(blocks)) == len(blocks)

    def test_partial_write_charges_its_read(self):
        """A partial write returns the enclosing line's fill cycles plus
        its write cycles, measured on a twin rig making both calls."""
        rigs = []
        for _ in range(2):
            engine, port = make_engine(), make_port()
            engine.install_image(port.memory, 0, self.IMAGE)
            rigs.append((engine, port))
        (engine, port), (twin, twin_port) = rigs
        data = b"\x11\x22\x33\x44"
        cycles = engine.write_partial(port, 0x104, data, 32)
        line, fill_cycles = twin.fill_line(twin_port, 0x100, 32)
        write_cycles = twin.write_line(twin_port, 0x100,
                                       line[:4] + data + line[8:])
        assert cycles == fill_cycles + write_cycles
        assert port.memory.dump(0, 1024) == twin_port.memory.dump(0, 1024)
        assert engine.read_plain(port.memory, 0x104, 4) == data

    def test_unaligned_image_base_rejected(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        with pytest.raises(ValueError):
            engine.install_image(memory, 40, self.IMAGE)

    def test_region_not_multiple_of_line_rejected(self):
        with pytest.raises(ValueError):
            make_engine(region_size=100)


class TestRandomAccessPenalty:
    """'unacceptable CPU performance degradation for random accesses'."""

    def test_deeper_lines_cost_more(self):
        engine = make_engine(authenticate=False)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(1024))
        _, first = engine.fill_line(port, 0, 32)
        _, last = engine.fill_line(port, 224, 32)
        assert last > 2 * first

    def test_write_tail_reencryption_cost(self):
        engine = make_engine(authenticate=False)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(1024))
        early = engine.write_line(port, 0, bytes(32))    # re-chains 256 bytes
        late = engine.write_line(port, 224, bytes(32))   # re-chains 32 bytes
        assert early > late

    def test_larger_regions_worse_for_random_access(self):
        from repro.analysis import measure_overhead
        from repro.traces import iter_random_data

        trace = list(iter_random_data(400, DRBG(9), base=0,
                                      working_set=8192, write_fraction=0.0))
        small = measure_overhead(
            lambda: make_engine(region_size=64, authenticate=False,
                                functional=False),
            trace, image=bytes(8192),
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
        ).overhead
        large = measure_overhead(
            lambda: make_engine(region_size=1024, authenticate=False,
                                functional=False),
            trace, image=bytes(8192),
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
        ).overhead
        assert large > 2 * small


class TestAuthentication:
    IMAGE = bytes((i * 31) & 0xFF for i in range(512))

    def test_clean_region_verifies(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, self.IMAGE)
        assert engine.verify_region(memory, 0)

    def test_tamper_detected_on_verify(self):
        engine = make_engine()
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, 0, self.IMAGE)
        memory.load_image(10, b"\xFF")  # attacker flips a byte
        assert not engine.verify_region(memory, 0)
        assert engine.verdicts.tampers == 1

    def test_tamper_detected_on_fill(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        port.memory.load_image(100, b"\x00\x01\x02")
        with pytest.raises(AuthenticationError):
            engine.fill_line(port, 96, 32)

    def test_verification_cached_per_region(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        _, first_cycles = engine.fill_line(port, 0, 32)
        _, second_cycles = engine.fill_line(port, 0, 32)
        # First touch verifies the whole region (extra fetch + hash);
        # the second fill of the same line skips the verification.
        assert first_cycles > second_cycles

    def test_write_refreshes_tag(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        engine.write_line(port, 0, bytes(32))
        assert engine.verify_region(port.memory, 0)


class TestSystemIntegration:
    def test_runs_under_system(self):
        engine = make_engine(region_size=256)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 16),
        )
        image = bytes((i * 3) & 0xFF for i in range(2048))
        system.install_image(0, image)
        for access in iter_sequential_code(200, code_size=2048):
            system.step(access)
        assert system.cache.misses > 0


class TestGroupedFills:
    """A fill group deciphers in one call after its loop; everything the
    loop observes must match the same lines filled one at a time."""

    IMAGE = DRBG(b"gi-grouped-fills").random_bytes(1024)
    #: Region 0 walks on, region 1 jumps in mid-chain and walks, region 0
    #: continues, a jump to region 3's last line ends its chain, region 2
    #: starts one, and a refill of a line already read restarts region 0.
    ADDRS = (0, 32, 64, 288, 320, 96, 992, 128, 512, 544, 32)

    def _rig(self, authenticate):
        engine = make_engine(authenticate=authenticate)
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        return engine, port

    @pytest.mark.parametrize("authenticate", (False, True))
    def test_group_equals_per_line_fills(self, authenticate):
        grouped, port = self._rig(authenticate)
        got = grouped.fill_lines(port, self.ADDRS, 32)
        single, port = self._rig(authenticate)
        want = [single.fill_line(port, addr, 32) for addr in self.ADDRS]
        assert got == want
        assert [line for line, _ in got] == [
            self.IMAGE[addr: addr + 32] for addr in self.ADDRS]
        assert vars(grouped.stats) == vars(single.stats)
        assert (grouped.chain_hits, grouped.chain_restarts) \
            == (single.chain_hits, single.chain_restarts) == (6, 5)
        assert grouped._chain_state == single._chain_state
        assert grouped._verified == single._verified
        assert (grouped.verdicts.checks, grouped.verdicts.tampers) \
            == (single.verdicts.checks, single.verdicts.tampers)

    def test_timing_only_group_returns_the_stored_bytes(self):
        engine = make_engine(functional=False)
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        got = engine.fill_lines(port, self.ADDRS, 32)
        assert [line for line, _ in got] == [
            port.memory.dump(addr, 32) for addr in self.ADDRS]
        assert engine.fill_lines(port, [], 32) == []

"""Every engine's functional contract: install -> memory holds ciphertext,
fills return plaintext, writebacks re-encrypt, stats account operations."""

import pytest

from repro.attacks import BusProbe
from repro.core import (
    AegisEngine,
    BestEngine,
    DS5002FPEngine,
    DS5240Engine,
    GilmontEngine,
    NullEngine,
    StreamCipherEngine,
    XomAesEngine,
)
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import Access, AccessKind, sequential_code

from .reference_model import store

KEY16 = b"0123456789abcdef"
KEY24 = b"0123456789abcdef01234567"

ENGINE_FACTORIES = {
    "xom": lambda: XomAesEngine(KEY16),
    "aegis": lambda: AegisEngine(KEY16),
    "gilmont": lambda: GilmontEngine(KEY24),
    "best": lambda: BestEngine(KEY16),
    "ds5002fp": lambda: DS5002FPEngine(KEY16),
    "ds5240": lambda: DS5240Engine(KEY16),
    "stream": lambda: StreamCipherEngine(KEY16, line_size=32),
}


def small_system(engine):
    return SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 20, latency=20),
    )


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def engine_name(request):
    return request.param


class TestFunctionalContract:
    IMAGE = bytes((i * 7 + 3) & 0xFF for i in range(512))

    def test_line_roundtrip(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        line = bytes(range(32))
        ct = engine.encrypt_line(0x100, line)
        assert engine.decrypt_line(0x100, ct) == line

    def test_ciphertext_differs_from_plaintext(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        line = bytes(range(32))
        assert engine.encrypt_line(0x100, line) != line

    def test_install_and_read_back(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        system = small_system(engine)
        system.install_image(0, self.IMAGE)
        assert system.read_plaintext(0, len(self.IMAGE)) == self.IMAGE

    def test_memory_holds_ciphertext(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        system = small_system(engine)
        system.install_image(0, self.IMAGE)
        assert system.memory.dump(0, len(self.IMAGE)) != self.IMAGE

    def test_execution_reads_correct_plaintext(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        system = small_system(engine)
        system.install_image(0, self.IMAGE)
        system.step(Access(AccessKind.FETCH, 0x40))
        assert bytes(system._line_data[2]) == self.IMAGE[0x40:0x60]

    def test_bus_probe_sees_only_ciphertext(self, engine_name):
        """The survey's whole point: the probed bus must not reveal the
        program."""
        engine = ENGINE_FACTORIES[engine_name]()
        system = small_system(engine)
        probe = BusProbe()
        system.bus.attach_probe(probe)
        system.install_image(0, self.IMAGE)
        for access in sequential_code(64, code_size=512):
            system.step(access)
        observed = probe.observed_bytes("read")
        assert self.IMAGE[:32] not in observed

    def test_null_engine_leaks_plaintext(self):
        system = small_system(NullEngine())
        probe = BusProbe()
        system.bus.attach_probe(probe)
        system.install_image(0, self.IMAGE)
        for access in sequential_code(64, code_size=512):
            system.step(access)
        assert self.IMAGE[:32] in probe.observed_bytes("read")

    def test_store_roundtrip_through_writeback(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        system = small_system(engine)
        system.install_image(0, bytes(512))
        payload = b"\xCA\xFE\xBA\xBE"
        store(system, 0x20, payload)
        system.flush()
        assert system.read_plaintext(0x20, 4) == payload

    def test_stats_account_lines(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        system = small_system(engine)
        system.install_image(0, self.IMAGE)
        system.step(Access(AccessKind.FETCH, 0))
        system.step(Access(AccessKind.FETCH, 64))
        assert engine.stats.lines_decrypted == 2

    def test_area_estimate_positive(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        assert engine.area().total > 0

    def test_reset_stats(self, engine_name):
        engine = ENGINE_FACTORIES[engine_name]()
        engine.encrypt_line(0, bytes(32))
        engine.reset_stats()
        assert engine.stats.lines_encrypted == 0


class TestAddressDependence:
    """Identical lines at different addresses must encrypt differently for
    the tweaked engines (defeats the cross-address dictionary attack)."""

    @pytest.mark.parametrize("name", ["xom", "gilmont", "ds5002fp",
                                      "ds5240", "stream", "aegis"])
    def test_different_addresses_different_ciphertext(self, name):
        engine = ENGINE_FACTORIES[name]()
        line = b"\x42" * 32
        assert engine.encrypt_line(0, line) != engine.encrypt_line(0x40, line)

    def test_best_address_schedule_is_periodic(self):
        """Best's poly-alphabetic schedule cycles every num_alphabets bytes
        of address — addresses congruent mod 16 share ciphertext, a leak
        the modern engines close."""
        engine = ENGINE_FACTORIES["best"]()
        line = b"\x42" * 32
        assert engine.encrypt_line(0, line) == engine.encrypt_line(0x40, line)
        assert engine.encrypt_line(0, line) != engine.encrypt_line(8, line)


class TestAreaOrdering:
    def test_aes_engines_dwarf_byte_engines(self):
        """The area ordering behind the survey's cost discussion."""
        xom = XomAesEngine(KEY16).area().total
        ds = DS5002FPEngine(KEY16).area().total
        best = BestEngine(KEY16).area().total
        assert xom > 10 * best
        assert xom > 10 * ds

    def test_aegis_about_300k(self):
        area = AegisEngine(KEY16).area()
        assert area.items.get("aes_pipelined") == 300_000

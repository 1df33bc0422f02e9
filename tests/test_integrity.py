"""Integrity shield engine (the survey's §5 future work, experiment E15):
tamper detection, replay protection, and its costs."""

import pytest

from repro.core import (
    IntegrityShieldEngine,
    StreamCipherEngine,
    TamperDetected,
    XomAesEngine,
)
from repro.core.engine import MemoryPort
from repro.sim import Bus, CacheConfig, MainMemory, MemoryConfig, SecureSystem
from repro.traces import Access, AccessKind, iter_sequential_code

KEY = b"0123456789abcdef"
MAC_KEY = b"integrity-mac-key"
TAG_BASE = 0x8000


def make_engine(versioned=True, inner=None):
    inner = inner if inner is not None else XomAesEngine(KEY)
    return IntegrityShieldEngine(
        inner, mac_key=MAC_KEY, tag_region_base=TAG_BASE,
        versioned=versioned,
    )


def make_port(size=1 << 17):
    return MemoryPort(MainMemory(MemoryConfig(size=size)), Bus())


class TestFunctional:
    IMAGE = bytes((i * 3 + 7) & 0xFF for i in range(1024))

    def test_install_fill_roundtrip(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        line, _ = engine.fill_line(port, 64, 32)
        assert line == self.IMAGE[64:96]
        assert engine.verdicts.checks == 1

    def test_write_then_fill_roundtrip(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        engine.write_line(port, 0, bytes(range(32)))
        line, _ = engine.fill_line(port, 0, 32)
        assert line == bytes(range(32))

    def test_partial_write_roundtrip(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        engine.write_partial(port, 5, b"\xAA\xBB", 32)
        line, _ = engine.fill_line(port, 0, 32)
        assert line[5:7] == b"\xAA\xBB"
        assert line[:5] == self.IMAGE[:5]
        assert engine.stats.rmw_operations == 1

    def test_tag_bytes_validation(self):
        with pytest.raises(ValueError):
            IntegrityShieldEngine(XomAesEngine(KEY), MAC_KEY, TAG_BASE,
                                  tag_bytes=2)


class TestTamperDetection:
    IMAGE = bytes(1024)

    def test_modified_instruction_detected(self):
        """'attacks based on the modification of the fetched
        instructions' — the exact §5 threat."""
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        # Attacker flips one ciphertext bit at line 2.
        raw = port.memory.dump(64, 1)[0] ^ 0x80
        port.memory.load_image(64, bytes([raw]))
        with pytest.raises(TamperDetected):
            engine.fill_line(port, 64, 32)
        assert engine.verdicts.tampers == 1

    def test_spoofed_tag_detected(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        tag_addr = engine._tag_addr(0, 32)
        port.memory.load_image(tag_addr, bytes(8))
        with pytest.raises(TamperDetected):
            engine.fill_line(port, 0, 32)

    def test_relocation_detected(self):
        """Moving a valid (line, tag) pair to another address fails: the
        address is inside the MAC."""
        engine = make_engine(versioned=False)
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        line0 = port.memory.dump(0, 32)
        tag0 = port.memory.dump(engine._tag_addr(0, 32), 8)
        port.memory.load_image(32, line0)
        port.memory.load_image(engine._tag_addr(32, 32), tag0)
        with pytest.raises(TamperDetected):
            engine.fill_line(port, 32, 32)

    def test_clean_lines_pass(self):
        engine = make_engine()
        port = make_port()
        engine.install_image(port.memory, 0, self.IMAGE)
        for addr in range(0, 1024, 32):
            engine.fill_line(port, addr, 32)
        assert engine.verdicts.tampers == 0


class TestReplayProtection:
    """The versioned/unversioned ablation: why real designs keep on-chip
    freshness state."""

    def _replay(self, versioned: bool) -> bool:
        engine = make_engine(versioned=versioned,
                             inner=StreamCipherEngine(KEY, line_size=32))
        port = make_port()
        engine.install_image(port.memory, 0, bytes(64))

        secret_v1 = b"ACCESS=DENIED..." * 2
        engine.write_line(port, 0, secret_v1)
        # Attacker records the bus image of version 1.
        recorded_line = port.memory.dump(0, 32)
        recorded_tag = port.memory.dump(engine._tag_addr(0, 32), 8)

        secret_v2 = b"ACCESS=GRANTED!!" * 2
        engine.write_line(port, 0, secret_v2)
        # Replay the stale pair; the attacker waits out the small on-chip
        # tag cache (modeled by clearing it — the worst case).
        port.memory.load_image(0, recorded_line)
        port.memory.load_image(engine._tag_addr(0, 32), recorded_tag)
        engine._tag_cache.clear()
        try:
            line, _ = engine.fill_line(port, 0, 32)
            return False  # replay accepted (and decrypts to stale data)
        except TamperDetected:
            return True

    def test_versioned_engine_rejects_replay(self):
        assert self._replay(versioned=True)

    def test_unversioned_engine_accepts_replay(self):
        """The measurable hole: without versions the stale pair verifies."""
        assert not self._replay(versioned=False)


class TestCosts:
    def test_fill_costs_more_than_inner(self):
        inner = XomAesEngine(KEY)
        shielded = make_engine(inner=XomAesEngine(KEY))
        port_a, port_b = make_port(), make_port()
        inner.install_image(port_a.memory, 0, bytes(64))
        shielded.install_image(port_b.memory, 0, bytes(64))
        _, plain_cycles = inner.fill_line(port_a, 0, 32)
        _, shield_cycles = shielded.fill_line(port_b, 0, 32)
        assert shield_cycles > plain_cycles + shielded.hash_latency - 1

    def test_tag_memory_overhead(self):
        engine = make_engine()
        assert engine.tag_overhead_fraction(32) == pytest.approx(0.25)

    def test_area_includes_version_table(self):
        versioned = make_engine(versioned=True).area().total
        bare = make_engine(versioned=False).area().total
        assert versioned > bare

    def test_system_level_run(self):
        engine = make_engine()
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 17),
        )
        system.install_image(0, bytes(4096))
        for access in iter_sequential_code(300, code_size=4096):
            system.step(access)
        assert engine.verdicts.checks > 0
        assert engine.verdicts.tampers == 0

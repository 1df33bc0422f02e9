"""Targeted tests for paths the module-focused suites leave untouched."""

import pytest

from repro.analysis import pad_reuse_leak
from repro.core import (
    GeneralInstrumentEngine,
    GilmontEngine,
    VlsiDmaEngine,
    XomAesEngine,
)
from repro.core.engine import MemoryPort
from repro.crypto import DRBG
from repro.sim import (
    EDU_L1_L2,
    Bus,
    CacheConfig,
    EnergyReport,
    MainMemory,
    MemoryConfig,
    TwoLevelSystem,
    estimate_run,
)
from repro.traces import Access, AccessKind, iter_sequential_code

KEY16 = b"0123456789abcdef"
KEY24 = b"0123456789abcdef01234567"


def make_port(size=1 << 17):
    return MemoryPort(MainMemory(MemoryConfig(size=size)), Bus())


class TestGilmontWindow:
    def test_prediction_window_prunes_oldest(self):
        """A long jumpy sweep must not grow the predictor without bound."""
        engine = GilmontEngine(KEY24, prediction_depth=2, functional=False)
        for i in range(100):
            engine.read_extra_cycles(i * 4096, 32, mem_cycles=44)
        assert len(engine._predicted) <= engine._max_window

    def test_zero_depth_never_predicts(self):
        engine = GilmontEngine(KEY24, prediction_depth=0, functional=False)
        engine.read_extra_cycles(0, 32, 44)
        engine.read_extra_cycles(32, 32, 44)
        assert engine.stats.prefetch_hits == 0


class TestGIPartialWrite:
    def test_patch_survives_rechaining(self):
        engine = GeneralInstrumentEngine(KEY24, region_size=256)
        port = make_port()
        image = bytes((i * 5 + 1) & 0xFF for i in range(512))
        engine.install_image(port.memory, 0, image)
        engine.write_partial(port, 10, b"\xAA\xBB", 32)
        assert engine.stats.rmw_operations == 1
        plain = engine.read_plain(port.memory, 0, 32)
        assert plain[10:12] == b"\xAA\xBB"
        assert plain[:10] == image[:10]
        # The rest of the region still authenticates.
        assert engine.verify_region(port.memory, 0)

    def test_chain_stats_track_hits_and_restarts(self):
        engine = GeneralInstrumentEngine(KEY24, region_size=256,
                                         authenticate=False)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(512))
        engine.fill_line(port, 0, 32)     # restart (cold)
        engine.fill_line(port, 32, 32)    # sequential: chain hit
        engine.fill_line(port, 128, 32)   # jump: restart
        assert engine.chain_hits == 1
        assert engine.chain_restarts == 2

    def test_region_end_clears_chain(self):
        engine = GeneralInstrumentEngine(KEY24, region_size=64,
                                         authenticate=False)
        port = make_port()
        engine.install_image(port.memory, 0, bytes(256))
        engine.fill_line(port, 0, 32)
        engine.fill_line(port, 32, 32)    # reaches region end
        assert 0 not in engine._chain_state


class TestVlsiReadPlain:
    def test_spans_pages(self):
        engine = VlsiDmaEngine(KEY24, page_size=256)
        memory = MainMemory(MemoryConfig(size=1 << 16))
        image = DRBG(8).random_bytes(1024)
        engine.install_image(memory, 0, image)
        # A read straddling the page boundary at 256.
        assert engine.read_plain(memory, 240, 32) == image[240:272]


class TestHierarchyEdges:
    def make(self, edu_level=EDU_L1_L2):
        return TwoLevelSystem(
            engine=XomAesEngine(KEY16),
            l1_config=CacheConfig(size=256, line_size=32, associativity=2),
            l2_config=CacheConfig(size=1024, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 18),
            edu_level=edu_level,
        )

    def test_flush_drains_both_levels(self):
        system = self.make()
        system.install_image(0, bytes(4096))
        system.step(Access(AccessKind.STORE, 0, 4), data=b"\x01\x02\x03\x04")
        system.flush()
        assert not system._l1_data and not system._l2_data
        assert system.read_plaintext(0, 4) == b"\x01\x02\x03\x04"

    def test_l2_dirty_eviction_reaches_memory(self):
        system = self.make(edu_level=EDU_L1_L2)
        system.install_image(0, bytes(1 << 15))
        payload = b"\xFE\xDC\xBA\x98"
        system.step(Access(AccessKind.STORE, 0, 4), data=payload)
        # Thrash far beyond both cache capacities.
        for i in range(1, 200):
            system.step(Access(AccessKind.LOAD, i * 160))
        system.flush()
        assert system.read_plaintext(0, 4) == payload

    def test_report_labels_edu_level(self):
        system = self.make()
        report = system.run(list(iter_sequential_code(50, code_size=2048)))
        assert "l1-l2" in report.label


class TestEnergyEdges:
    def test_estimate_without_engine(self):
        from repro.sim import SecureSystem
        system = SecureSystem(mem_config=MemoryConfig(size=1 << 16))
        report = system.run(list(iter_sequential_code(100, code_size=2048)))
        energy = estimate_run(report)
        assert "cipher" not in energy.items
        assert energy.total_pj > 0

    def test_overhead_vs_zero_baseline(self):
        assert EnergyReport().overhead_vs(EnergyReport()) == 0.0


class TestPadReuseHelper:
    def test_without_known_plaintext_returns_xor(self):
        ct_a = bytes([0x0F, 0xF0])
        ct_b = bytes([0xFF, 0x00])
        assert pad_reuse_leak(ct_a, ct_b) == bytes([0xF0, 0xF0])


class TestCliSurvey:
    def test_survey_runs(self, capsys):
        from repro.cli import main
        assert main(["survey", "--accesses", "300"]) == 0
        out = capsys.readouterr().out
        assert "aegis" in out and "withstands class" in out

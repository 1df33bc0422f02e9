"""Two-level hierarchy with a movable EDU, and the energy model."""

import pytest

from repro.core import StreamCipherEngine, XomAesEngine
from repro.crypto import DRBG
from repro.sim import (
    EDU_L1_L2,
    EDU_L2_MEMORY,
    CacheConfig,
    EnergyModel,
    EnergyReport,
    MemoryConfig,
    TwoLevelSystem,
    estimate_run,
)
from repro.sim.system import store_payload
from repro.traces import Access, AccessKind, make_workload, sequential_code

KEY = b"0123456789abcdef"


def make_system(engine=None, edu_level=EDU_L2_MEMORY, **kwargs):
    defaults = dict(
        l1_config=CacheConfig(size=1024, line_size=32, associativity=2,
                              hit_latency=1),
        l2_config=CacheConfig(size=8192, line_size=32, associativity=4,
                              hit_latency=8),
        mem_config=MemoryConfig(size=1 << 20, latency=60),
    )
    defaults.update(kwargs)
    return TwoLevelSystem(engine=engine, edu_level=edu_level, **defaults)


class TestHierarchyBasics:
    def test_l2_filters_memory_traffic(self):
        system = make_system()
        trace = sequential_code(2000, code_size=4096)  # fits L2, not L1
        system.run(list(trace))
        # Second pass over the same code: L2 hits, no new memory reads.
        reads_after_warmup = system.memory.reads
        for access in sequential_code(2000, code_size=4096):
            system.step(access)
        assert system.memory.reads == reads_after_warmup

    def test_l1_l2_line_size_must_match(self):
        with pytest.raises(ValueError):
            TwoLevelSystem(
                l1_config=CacheConfig(size=1024, line_size=32, associativity=2),
                l2_config=CacheConfig(size=8192, line_size=64, associativity=4),
            )

    def test_bad_edu_level(self):
        with pytest.raises(ValueError):
            make_system(edu_level="l3-dram")

    def test_two_levels_beat_one_on_reuse(self):
        """The L2 pays off when the working set fits it but not L1."""
        from repro.sim import SecureSystem

        trace = sequential_code(4000, code_size=4096)
        single = SecureSystem(
            cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 20, latency=60),
        )
        double = make_system()
        single.run(list(trace))
        double.run(list(trace))
        assert double.cycles < single.cycles


class TestFunctionalConsistency:
    IMAGE_SIZE = 8192

    @pytest.mark.parametrize("edu_level", [EDU_L2_MEMORY, EDU_L1_L2])
    def test_install_and_execute(self, edu_level):
        engine = XomAesEngine(KEY)
        system = make_system(engine=engine, edu_level=edu_level)
        image = DRBG(9).random_bytes(self.IMAGE_SIZE)
        system.install_image(0, image)
        for addr in (0, 32, 4096, self.IMAGE_SIZE - 32):
            system.step(Access(AccessKind.LOAD, addr))
            line = bytes(system._l1_data[addr // 32])
            assert line == image[addr: addr + 32]

    @pytest.mark.parametrize("edu_level", [EDU_L2_MEMORY, EDU_L1_L2])
    def test_store_flush_roundtrip(self, edu_level):
        engine = StreamCipherEngine(KEY, line_size=32)
        system = make_system(engine=engine, edu_level=edu_level)
        system.install_image(0, bytes(self.IMAGE_SIZE))
        payload = b"\xAB\xCD\xEF\x01"
        system.step(Access(AccessKind.STORE, 0x40, 4), data=payload)
        system.flush()
        assert system.read_plaintext(0x40, 4) == payload

    def test_trace_store_writes_the_shared_filler(self):
        system = make_system()
        system.step(Access(AccessKind.STORE, 0x44, 8))
        assert bytes(system._l1_data[2][4:12]) == store_payload(0x44, 8)

    def test_l2_holds_ciphertext_when_edu_at_l1(self):
        engine = XomAesEngine(KEY)
        system = make_system(engine=engine, edu_level=EDU_L1_L2)
        image = DRBG(10).random_bytes(self.IMAGE_SIZE)
        system.install_image(0, image)
        system.step(Access(AccessKind.LOAD, 0))
        # The L2's copy is ciphertext, the L1's is plaintext.
        assert bytes(system._l2_data[0]) != image[:32]
        assert bytes(system._l1_data[0]) == image[:32]

    def test_l2_holds_plaintext_when_edu_at_memory(self):
        engine = XomAesEngine(KEY)
        system = make_system(engine=engine, edu_level=EDU_L2_MEMORY)
        image = DRBG(10).random_bytes(self.IMAGE_SIZE)
        system.install_image(0, image)
        system.step(Access(AccessKind.LOAD, 0))
        assert bytes(system._l2_data[0]) == image[:32]


class TestPlacementTradeoff:
    def test_edu_at_l1_pays_on_l2_hits(self):
        """With good L2 locality, crypto at the L1 boundary runs far more
        often than crypto at the memory boundary."""
        trace = [
            type(a)(a.kind, a.addr % 8192, a.size)
            for a in make_workload("mixed", n=3000)
        ]
        results = {}
        for level in (EDU_L2_MEMORY, EDU_L1_L2):
            engine = XomAesEngine(KEY, functional=False)
            system = make_system(engine=engine, edu_level=level)
            system.install_image(0, bytes(8192))
            system.run(list(trace))
            results[level] = (system.cycles, engine.stats.lines_decrypted)
        assert results[EDU_L1_L2][1] > results[EDU_L2_MEMORY][1]
        assert results[EDU_L1_L2][0] > results[EDU_L2_MEMORY][0]

    @pytest.mark.parametrize("edu_level", [EDU_L2_MEMORY, EDU_L1_L2])
    def test_report_carries_engine_cipher_counters(self, edu_level):
        engine = XomAesEngine(KEY, functional=False)
        system = make_system(engine=engine, edu_level=edu_level)
        system.install_image(0, bytes(8192))
        trace = [
            type(a)(a.kind, a.addr % 8192, a.size)
            for a in make_workload("mixed", n=3000)
        ]
        report = system.run(trace)
        stats = engine.stats
        assert stats.lines_decrypted > 0
        assert report.lines_decrypted == stats.lines_decrypted
        assert report.lines_encrypted == stats.lines_encrypted
        assert report.bytes_enciphered == 32 * (
            stats.lines_decrypted + stats.lines_encrypted)


class TestEnergyModel:
    def test_report_accumulates(self):
        report = EnergyReport()
        report.add("x", 100.0).add("x", 50.0).add("y", 25.0)
        assert report.total_pj == 175.0
        assert report.items["x"] == 150.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EnergyReport().add("x", -1.0)

    def test_unknown_event(self):
        with pytest.raises(KeyError):
            EnergyModel().cost("warp_core")

    def test_custom_costs(self):
        model = EnergyModel({"cpu_cycle": 1.0})
        assert model.cost("cpu_cycle") == 1.0
        assert model.cost("bus_beat") > 1.0  # defaults retained

    def test_engine_energy_included(self):
        from repro.sim import SecureSystem

        engine = XomAesEngine(KEY, functional=False)
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 18),
        )
        report = system.run(sequential_code(500, code_size=4096))
        energy = estimate_run(report, engine)
        assert energy.items["cipher"] > 0
        assert energy.total_pj > energy.items["cipher"]

    def test_encryption_costs_energy(self):
        from repro.sim import SecureSystem

        trace = sequential_code(800, code_size=8192)

        def run(engine):
            system = SecureSystem(
                engine=engine,
                cache_config=CacheConfig(size=512, line_size=32,
                                         associativity=2),
                mem_config=MemoryConfig(size=1 << 18),
            )
            report = system.run(list(trace))
            return estimate_run(report, engine)

        baseline = run(None)
        secured = run(XomAesEngine(KEY, functional=False))
        assert secured.total_pj > baseline.total_pj
        assert secured.overhead_vs(baseline) > 0

    def test_str_renders(self):
        report = EnergyReport().add("bus", 2e6)
        assert "uJ" in str(report)

"""Access-pattern side channel: the leak encryption does not close."""

import pytest

from repro.attacks import (
    BusProbe,
    classify_pattern,
    page_sequence,
    profile_probe,
)
from repro.core import AegisEngine, VlsiDmaEngine
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import make_workload, iter_random_data, iter_sequential_code
from repro.crypto import DRBG

KEY = b"0123456789abcdef"
KEY24 = b"0123456789abcdef01234567"


def run_with_probe(trace, engine=None):
    probe = BusProbe()
    system = SecureSystem(
        engine=engine,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
        sink=probe,
    )
    system.install_image(0, bytes(32 * 1024))
    for access in trace:
        system.step(access)
    return probe


class TestProfile:
    def test_empty_probe(self):
        prof = profile_probe(BusProbe())
        assert prof.transactions == 0
        assert prof.working_set_bytes == 0

    def test_sequential_profile(self):
        probe = run_with_probe(
            list(iter_sequential_code(2000, code_size=32 * 1024)))
        prof = profile_probe(probe)
        assert prof.sequential_fraction > 0.9
        assert prof.looks_sequential

    def test_random_profile(self):
        trace = list(iter_random_data(1500, DRBG(3), base=0,
                                      working_set=32 * 1024))
        probe = run_with_probe(trace)
        prof = profile_probe(probe)
        assert prof.sequential_fraction < 0.2
        assert prof.looks_random


class TestLeakSurvivesEncryption:
    """The same classification works with the strongest engine installed."""

    def test_sequential_recognized_through_aegis(self):
        probe = run_with_probe(
            list(iter_sequential_code(2000, code_size=32 * 1024)),
            engine=AegisEngine(KEY),
        )
        assert classify_pattern(probe) == "sequential"

    def test_random_recognized_through_aegis(self):
        trace = list(iter_random_data(1500, DRBG(4), base=0,
                                      working_set=32 * 1024))
        probe = run_with_probe(trace, engine=AegisEngine(KEY))
        assert classify_pattern(probe) == "random"

    def test_working_set_estimate_through_encryption(self):
        trace = list(iter_sequential_code(4000, code_size=8192))
        probe = run_with_probe(trace, engine=AegisEngine(KEY))
        prof = profile_probe(probe)
        # 8 KiB of code = 256 distinct lines, every one observed.
        assert prof.distinct_addresses == 256

    def test_write_mix_visible(self):
        trace = make_workload("write-heavy", n=1500)
        probe = run_with_probe(trace, engine=AegisEngine(KEY))
        prof = profile_probe(probe)
        assert prof.write_fraction > 0.1


class TestPageSequenceLeak:
    def test_vlsi_page_order_recovered(self):
        """The page-DMA engine broadcasts the victim's page access order
        as plaintext-visible burst addresses."""
        engine = VlsiDmaEngine(KEY24, page_size=1024, buffer_pages=2)
        probe = BusProbe()
        system = SecureSystem(
            engine=engine,
            cache_config=CacheConfig(size=512, line_size=32, associativity=2),
            mem_config=MemoryConfig(size=1 << 21),
            sink=probe,
        )
        system.install_image(0, bytes(8192))
        # Touch pages 0, 2, 5 in order (one access each page).
        from repro.traces import Access, AccessKind
        for page in (0, 2, 5):
            system.step(Access(AccessKind.LOAD, page * 1024))
        assert page_sequence(probe, page_size=1024) == [0, 2, 5]

    def test_non_paged_engine_shows_no_bursts(self):
        probe = run_with_probe(
            list(iter_sequential_code(500, code_size=4096)),
            engine=AegisEngine(KEY),
        )
        assert page_sequence(probe, page_size=1024) == []

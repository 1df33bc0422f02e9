"""Full-system simulator: timing accounting, functional data path,
write-policy behaviour and the report structure."""

import pytest

from repro.core import NullEngine, StreamCipherEngine, XomAesEngine
from repro.sim import (
    CacheConfig,
    MemoryConfig,
    SecureSystem,
    WritePolicy,
    overhead,
    run_trace,
)
from repro.traces import Access, AccessKind, sequential_code, write_burst

from .reference_model import store

KEY = b"0123456789abcdef"


def small_system(engine=None, **kwargs):
    defaults = dict(
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 20, latency=20),
    )
    defaults.update(kwargs)
    return SecureSystem(engine=engine, **defaults)


class TestBaselineTiming:
    def test_single_miss_cost(self):
        system = small_system()
        system.step(Access(AccessKind.LOAD, 0x100))
        # issue(1) + hit latency(1) + mem read (20 + 4 beats)
        assert system.cycles == 1 + 1 + 24

    def test_hit_cost(self):
        system = small_system()
        system.step(Access(AccessKind.LOAD, 0x100))
        before = system.cycles
        system.step(Access(AccessKind.LOAD, 0x104))
        assert system.cycles - before == 2  # issue + hit

    def test_deterministic(self):
        trace = sequential_code(500)
        a = run_trace(list(trace))
        b = run_trace(list(trace))
        assert a.cycles == b.cycles

    def test_report_counts(self):
        trace = sequential_code(100, step=4, code_size=1 << 16)
        report = small_system().run(trace)
        assert report.accesses == 100
        assert report.fetches == 100
        assert report.cache_hits + report.cache_misses == 100
        # 8 accesses per 32-byte line -> 1/8 miss rate, sequential.
        assert report.cache_misses == 13  # ceil(100/8) with cold start

    def test_cpi(self):
        report = small_system().run(sequential_code(100))
        assert report.cpi == pytest.approx(report.cycles / 100)


class TestFunctionalPath:
    def test_install_and_read_back(self):
        engine = XomAesEngine(KEY)
        system = small_system(engine)
        image = bytes(range(256))
        system.install_image(0, image)
        assert system.read_plaintext(0, 256) == image

    def test_memory_holds_ciphertext(self):
        engine = XomAesEngine(KEY)
        system = small_system(engine)
        image = bytes(range(256))
        system.install_image(0, image)
        raw = system.memory.dump(0, 256)
        assert raw != image

    def test_null_engine_memory_in_clear(self):
        system = small_system()
        system.install_image(0, b"cleartext-program!!!           .")
        assert system.memory.dump(0, 8) == b"cleartex"

    def test_fill_returns_plaintext(self):
        engine = StreamCipherEngine(KEY, line_size=32)
        system = small_system(engine)
        image = bytes(range(64))
        system.install_image(0, image)
        system.step(Access(AccessKind.LOAD, 0))
        assert bytes(system._line_data[0]) == image[:32]

    def test_store_then_writeback_roundtrip(self):
        engine = StreamCipherEngine(KEY, line_size=32)
        system = small_system(engine)
        system.install_image(0, bytes(64))
        payload = b"\xAA\xBB\xCC\xDD"
        store(system, 0, payload)
        system.flush()
        assert system.read_plaintext(0, 4) == payload

    def test_dirty_data_survives_eviction_and_refill(self):
        engine = XomAesEngine(KEY)
        system = small_system(engine)
        payload = b"\x11\x22\x33\x44"
        store(system, 0x40, payload)
        # Thrash the set until 0x40's line is evicted (2-way, 16 sets).
        stride = 16 * 32
        system.step(Access(AccessKind.LOAD, 0x40 + stride))
        system.step(Access(AccessKind.LOAD, 0x40 + 2 * stride))
        assert not system.cache.contains(0x40)
        system.step(Access(AccessKind.LOAD, 0x40))
        assert bytes(system._line_data[0x40 // 32][:4]) == payload


class TestWritePolicies:
    def test_write_through_generates_memory_writes(self):
        system = small_system(
            cache_config=CacheConfig(
                size=1024, line_size=32, associativity=2,
                write_policy=WritePolicy.WRITE_THROUGH,
            )
        )
        for access in write_burst(10, base=0, write_size=4):
            system.step(access)
        assert system.memory.writes >= 10

    def test_write_back_coalesces(self):
        system = small_system()
        for access in write_burst(10, base=0, write_size=4):
            system.step(access)
        # All stores hit one line; no memory writes until eviction.
        assert system.memory.writes == 0

    def test_write_buffer_hides_latency(self):
        cfg = dict(
            cache_config=CacheConfig(
                size=1024, line_size=32, associativity=2,
                write_policy=WritePolicy.WRITE_THROUGH,
            ),
        )
        trace = write_burst(50, base=0, write_size=4)
        buffered = small_system(write_buffer=True, **cfg)
        stalling = small_system(write_buffer=False, **cfg)
        buffered.run(list(trace))
        stalling.run(list(trace))
        assert stalling.cycles > buffered.cycles


class TestOverheadHelpers:
    def test_null_engine_zero_overhead(self):
        trace = sequential_code(200)
        assert overhead(list(trace), NullEngine()) == pytest.approx(0.0)

    def test_engine_overhead_positive(self):
        trace = sequential_code(200)
        engine = XomAesEngine(KEY, functional=False)
        assert overhead(list(trace), engine) > 0.0

    def test_run_trace_label(self):
        report = run_trace(sequential_code(10), label="my-run")
        assert report.label == "my-run"

    def test_overhead_vs_self_is_zero(self):
        report = run_trace(sequential_code(10))
        assert report.overhead_vs(report) == 0.0


# -- bulk install encryption (engine.encrypt_lines) -------------------------

from repro.core.registry import engine_names, make_engine
from repro.crypto.drbg import DRBG as _DRBG


class TestEncryptLinesBulk:
    """encrypt_lines must equal the scalar per-line loop, state included.

    Engines with batched overrides (xom, ds5240, stream, aegis) advance
    per-line state (versions, vectors) during installation; running the
    bulk call on one instance and the scalar loop on a twin pins both
    the ciphertext and the state evolution.
    """

    def _items(self, n=40, line=32):
        rng = _DRBG(b"encrypt-lines-bulk")
        return [(0x400 + i * line, rng.random_bytes(line))
                for i in range(n)]

    @pytest.mark.parametrize(
        "name",
        [n for n in engine_names() if n not in ("gi", "vlsi")],
    )
    def test_bulk_matches_scalar(self, name):
        # gi/vlsi are region/page granular and raise on encrypt_line;
        # their installs are covered by their own test modules.
        items = self._items()
        bulk = make_engine(name).encrypt_lines(items)
        scalar_engine = make_engine(name)
        scalar = [scalar_engine.encrypt_line(addr, line)
                  for addr, line in items]
        assert bulk == scalar

    def test_bulk_falls_back_on_ragged_widths(self):
        engine = make_engine("xom")
        items = [(0x4000, bytes(32)), (0x4020, bytes(16))]
        twin = make_engine("xom")
        assert engine.encrypt_lines(items) == [
            twin.encrypt_line(addr, line) for addr, line in items
        ]

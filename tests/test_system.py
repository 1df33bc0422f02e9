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


# -- bulk cache-line fills (engine.fill_lines) -------------------------------

from repro.core import CpuCacheStreamEngine
from repro.core.engine import BusEncryptionEngine, MemoryPort
from repro.obs import CounterSink
from repro.sim import MainMemory
from repro.sim.bus import Bus

#: Every engine with its own fill_lines: the registry engines that
#: override it, plus the CPU-cache placement and the plaintext baseline.
_FILL_FACTORIES = {
    **{
        name: (lambda functional, name=name:
               make_engine(name, functional=functional))
        for name in engine_names()
        if type(make_engine(name)).fill_lines
        is not BusEncryptionEngine.fill_lines
    },
    "cpu-cache-stream": lambda functional:
        CpuCacheStreamEngine(KEY, functional=functional),
    "plaintext": lambda functional: NullEngine(functional=functional),
}


class TestFillLinesBulk:
    """fill_lines must equal the per-line fill_line loop, observably.

    Each engine runs one bulk call over 40 installed lines on one
    instance and the scalar loop on a twin; plaintexts, cycles, stats
    (Gilmont's prediction counters included), the event summary and the
    bus transaction log must all match.
    """

    LINE = 32
    BASE = 0x400

    def _image(self):
        return _DRBG(b"fill-lines-bulk").random_bytes(40 * self.LINE)

    def _addrs(self):
        # A sequential run (Gilmont's predictor hits), then jumps,
        # re-fetches and a backwards walk over the same 40 lines.
        order = list(range(16)) + [30, 20, 31, 21, 39, 0, 5, 5, 38, 22]
        order += list(range(37, 23, -1))
        return [self.BASE + i * self.LINE for i in order]

    def _rig(self, name, functional):
        engine = _FILL_FACTORIES[name](functional)
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine.install_image(memory, self.BASE, self._image(),
                             line_size=self.LINE)
        sink = CounterSink()
        engine.attach_sink(sink)
        bus = Bus()
        log = []
        bus.attach_probe(log.append)
        return engine, MemoryPort(memory, bus), sink, log

    def test_covers_every_override(self):
        assert {"aegis", "ds5002fp", "ds5240", "gilmont", "stream",
                "xom"} <= set(_FILL_FACTORIES)

    @pytest.mark.parametrize("functional", [True, False],
                             ids=["functional", "timing-only"])
    @pytest.mark.parametrize("name", sorted(_FILL_FACTORIES))
    def test_bulk_matches_per_line(self, name, functional):
        addrs = self._addrs()
        engine, port, sink, log = self._rig(name, functional)
        bulk = engine.fill_lines(port, addrs, self.LINE)
        twin, twin_port, twin_sink, twin_log = self._rig(name, functional)
        scalar = [twin.fill_line(twin_port, addr, self.LINE)
                  for addr in addrs]
        assert bulk == scalar
        assert engine.stats == twin.stats
        assert sink.summary() == twin_sink.summary()
        assert sink.bytes_summary() == twin_sink.bytes_summary()
        assert log == twin_log and len(log) == len(addrs)
        if functional and name != "plaintext":
            image = self._image()
            for addr, (plain, _) in zip(addrs, bulk):
                offset = addr - self.BASE
                assert plain == image[offset: offset + self.LINE]

    @pytest.mark.parametrize("name", sorted(_FILL_FACTORIES))
    def test_empty_group(self, name):
        engine, port, sink, log = self._rig(name, True)
        assert engine.fill_lines(port, [], self.LINE) == []
        assert sink.summary() == {} and log == []

    def test_gilmont_prediction_evolves_per_line(self):
        engine, port, _, _ = self._rig("gilmont", True)
        engine.fill_lines(port, self._addrs(), self.LINE)
        assert engine.stats.prefetch_hits > 0
        assert engine.stats.prefetch_misses > 0

    @pytest.mark.parametrize("name, cipher, method", [
        ("ds5002fp", "cipher", "decrypt"),
        ("ds5240", "_cipher", "decrypt_blocks"),
        ("gilmont", "_cipher", "decrypt_blocks"),
    ])
    def test_timing_only_runs_no_cipher(self, monkeypatch, name, cipher,
                                        method):
        engine, port, _, _ = self._rig(name, False)

        def boom(*args):
            raise AssertionError("timing-only fill ran the cipher")

        monkeypatch.setattr(getattr(engine, cipher), method, boom)
        engine.fill_lines(port, self._addrs(), self.LINE)

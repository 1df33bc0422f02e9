"""Full-system simulator: timing accounting, functional data path,
write-policy behaviour and the report structure."""

import gc
import weakref

import pytest

from repro.analysis import measure_overhead
from repro.core import NullEngine, StreamCipherEngine, XomAesEngine
from repro.sim import (
    EDU_L1_L2,
    EDU_L2_MEMORY,
    CacheConfig,
    MemoryConfig,
    SecureSystem,
    TwoLevelSystem,
    WritePolicy,
    run_trace,
)
from repro.traces import (
    Access,
    AccessKind,
    iter_sequential_code,
    iter_write_burst,
)

from .reference_model import build, make_bench_trace, store

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
        trace = list(iter_sequential_code(500))
        a = run_trace(list(trace))
        b = run_trace(list(trace))
        assert a.cycles == b.cycles

    def test_report_counts(self):
        trace = list(iter_sequential_code(100, step=4, code_size=1 << 16))
        report = small_system().run(trace)
        assert report.accesses == 100
        assert report.fetches == 100
        assert report.cache_hits + report.cache_misses == 100
        # 8 accesses per 32-byte line -> 1/8 miss rate, sequential.
        assert report.cache_misses == 13  # ceil(100/8) with cold start

    def test_cpi(self):
        report = small_system().run(list(iter_sequential_code(100)))
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
        for access in iter_write_burst(10, base=0, write_size=4):
            system.step(access)
        assert system.memory.writes >= 10

    def test_write_back_coalesces(self):
        system = small_system()
        for access in iter_write_burst(10, base=0, write_size=4):
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
        trace = list(iter_write_burst(50, base=0, write_size=4))
        buffered = small_system(write_buffer=True, **cfg)
        stalling = small_system(write_buffer=False, **cfg)
        buffered.run(list(trace))
        stalling.run(list(trace))
        assert stalling.cycles > buffered.cycles


class TestOverheadHelpers:
    def test_null_engine_zero_overhead(self):
        trace = list(iter_sequential_code(200))
        assert measure_overhead(NullEngine, list(trace)).overhead \
            == pytest.approx(0.0)

    def test_engine_overhead_positive(self):
        trace = list(iter_sequential_code(200))
        result = measure_overhead(
            lambda: XomAesEngine(KEY, functional=False), list(trace))
        assert result.overhead > 0.0

    def test_run_trace_label(self):
        report = run_trace(list(iter_sequential_code(10)), label="my-run")
        assert report.label == "my-run"

    def test_overhead_vs_self_is_zero(self):
        report = run_trace(list(iter_sequential_code(10)))
        assert report.overhead_vs(report) == 0.0


# -- bulk install encryption (engine.encrypt_lines) -------------------------

from repro.core.registry import engine_names, make_engine
from repro.crypto.drbg import DRBG as _DRBG


class TestEncryptLinesBulk:
    """A group call must equal the same items as one-line calls, state
    included.

    Engines that batch their transform (xom, ds5240, stream, aegis...)
    define ``encrypt_lines`` alone, so ``encrypt_line`` is its one-line
    group and per-line state (versions, vectors) must advance the same
    either way; running the group on one instance and one-line calls on
    a twin pins both the ciphertext and the state evolution.  The
    independent oracle is :data:`_ENCRYPT_PINS`, recorded from the
    per-line transforms these engines used to keep.
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


# -- cache-line fills (engine.fill_lines) -------------------------------------

import inspect

import repro.core
from repro.attacks import BusProbe
from repro.core import CpuCacheStreamEngine
from repro.core.engine import BlockModeEngine, BusEncryptionEngine, MemoryPort
from repro.crypto import kernels
from repro.obs import CounterSink
from repro.sim import MainMemory
from repro.sim.bus import Bus

from .reference_model import reference_fill

#: The Merkle tree protects exactly one installed region.
_FILL_OVERRIDES = {"merkle-stream": dict(region_base=0x400, region_size=2048)}

#: Every registry engine, plus the CPU-cache placement and the plaintext
#: baseline.
_FILL_FACTORIES = {
    **{
        name: (lambda functional, name=name:
               make_engine(name, functional=functional,
                           **_FILL_OVERRIDES.get(name, {})))
        for name in engine_names()
    },
    "cpu-cache-stream": lambda functional:
        CpuCacheStreamEngine(KEY, functional=functional),
    "plaintext": lambda functional: NullEngine(functional=functional),
}


def _on_base_path(engine) -> bool:
    """True when the engine fills through the base class's own loop with
    no per-line verdict and each line priced by its ``read_extra_cycles``
    (:func:`reference_fill` models no ``_verify_fill`` and no pad-ahead)."""
    cls = type(engine)
    return (cls.fill_lines is BusEncryptionEngine.fill_lines
            and cls.read_extra_cycles_for in (
                BusEncryptionEngine.read_extra_cycles_for,
                BlockModeEngine.read_extra_cycles_for)
            and cls._verify_fill is BusEncryptionEngine._verify_fill)


def _has_scalar_oracle(engine) -> bool:
    """True when :func:`_scalar_fill` models the engine's fill: the base
    path, and stream (the base path plus a pad-ahead per line)."""
    return _on_base_path(engine) or type(engine) is StreamCipherEngine


def _scalar_fill(engine, port, addr: int, line_size: int):
    """One line of the scalar fill sequence: :func:`reference_fill`, then
    for stream its pad-ahead, before the next line's pad-cache lookup."""
    fill = reference_fill(engine, port, addr, line_size)
    if type(engine) is StreamCipherEngine:
        for i in range(1, engine.pad_ahead_depth + 1):
            engine._cache_pad(addr + i * line_size)
    return fill


class TestFillLinesBulk:
    """fill_lines must equal a line-at-a-time oracle, observably.

    Each engine runs one group call over 40 installed lines on one
    instance and the oracle on a twin: :func:`_scalar_fill` (the scalar
    fill sequence) for engines on the base fill path and stream,
    one-address ``fill_lines`` calls for engines with their own per-line
    loop.  Plaintexts, cycles, stats (Gilmont's prediction counters
    included), the event summary and the bus transaction log must all
    match; an engine with a scalar oracle reads the bus once per line.
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
        # Room for the integrity tags and Merkle nodes stored at 1 MiB.
        memory = MainMemory(MemoryConfig(size=1 << 21))
        engine.install_image(memory, self.BASE, self._image(),
                             line_size=self.LINE)
        sink = CounterSink()
        engine.attach_sink(sink)
        probe = BusProbe()
        return engine, MemoryPort(memory, Bus(sink=probe)), sink, \
            probe.transactions

    def test_covers_every_override(self):
        assert set(engine_names()) <= set(_FILL_FACTORIES)
        on_base = {name for name, build in _FILL_FACTORIES.items()
                   if _on_base_path(build(False))}
        assert {"aegis", "best", "ds5002fp", "ds5240", "gilmont", "xom",
                "cpu-cache-stream", "plaintext"} <= on_base
        scalar = {name for name, build in _FILL_FACTORIES.items()
                  if _has_scalar_oracle(build(False))}
        assert scalar == on_base | {"stream"}

    @pytest.mark.parametrize("functional", [True, False],
                             ids=["functional", "timing-only"])
    @pytest.mark.parametrize("name", sorted(_FILL_FACTORIES))
    def test_bulk_matches_per_line(self, name, functional):
        addrs = self._addrs()
        engine, port, sink, log = self._rig(name, functional)
        bulk = engine.fill_lines(port, addrs, self.LINE)
        twin, twin_port, twin_sink, twin_log = self._rig(name, functional)
        scalar_oracle = _has_scalar_oracle(twin)
        if scalar_oracle:
            scalar = [_scalar_fill(twin, twin_port, addr, self.LINE)
                      for addr in addrs]
        else:
            scalar = [twin.fill_lines(twin_port, (addr,), self.LINE)[0]
                      for addr in addrs]
        assert bulk == scalar
        assert engine.stats == twin.stats
        assert sink.summary() == twin_sink.summary()
        assert sink.bytes_summary() == twin_sink.bytes_summary()
        assert log == twin_log
        if scalar_oracle:
            assert len(log) == len(addrs)
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


# -- the line transforms (engine.decrypt_lines, engine.encrypt_lines) ---------

#: The engines that batch their decrypt, by their cipher's block size.
_BATCH_DECRYPT = {
    "aegis": 16, "xom": 16, "stream": 16, "cpu-cache-stream": 16,
    "ds5240": 8, "gilmont": 8, "ds5002fp": 8,
}


class TestDecryptLines:
    LINE = 32

    @pytest.mark.parametrize("name", sorted(_BATCH_DECRYPT))
    def test_batch_matches_single_lines_across_numpy_width(self, name):
        # Group sizes straddle the width at which a kernel call switches
        # from the narrow rung to numpy gathers; one line alone always
        # stays narrow.
        block = _BATCH_DECRYPT[name]
        threshold = (kernels.NUMPY_MIN_BLOCKS_AES if block == 16
                     else kernels.NUMPY_MIN_BLOCKS_DES)
        per_line = self.LINE // block
        wide = -(-threshold // per_line)
        assert per_line < threshold
        engine = _FILL_FACTORIES[name](True)
        rng = _DRBG(b"decrypt-lines-" + name.encode())
        items = [(0x800 + 0x60 * i, rng.random_bytes(self.LINE))
                 for i in range(wide + 1)]
        for n in (1, wide - 1, wide, wide + 1):
            group = items[:n]
            assert engine.decrypt_lines(group) == [
                engine.decrypt_line(addr, ct) for addr, ct in group
            ]

    @pytest.mark.parametrize("name", sorted(_BATCH_DECRYPT))
    def test_defines_decrypt_lines_only(self, name):
        cls = type(_FILL_FACTORIES[name](True))
        owners = [klass for klass in cls.__mro__
                  if "decrypt_lines" in vars(klass)
                  or "fill_lines" in vars(klass)
                  or "decrypt_line" in vars(klass)]
        assert owners[0] is not BusEncryptionEngine
        assert "decrypt_lines" in vars(owners[0])
        assert "fill_lines" not in vars(owners[0])
        assert "decrypt_line" not in vars(owners[0])

    @pytest.mark.parametrize("name", sorted(_BATCH_DECRYPT))
    def test_defines_encrypt_lines_only(self, name):
        cls = type(_FILL_FACTORIES[name](True))
        owners = [klass for klass in cls.__mro__
                  if "encrypt_lines" in vars(klass)
                  or "encrypt_line" in vars(klass)]
        assert owners[0] is not BusEncryptionEngine
        assert "encrypt_lines" in vars(owners[0])
        assert "encrypt_line" not in vars(owners[0])


def _concrete_engines():
    seen, todo = [], [BusEncryptionEngine]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [cls for cls in seen
            if cls.__module__.startswith("repro.core.")
            and not inspect.isabstract(cls)]


def test_every_core_engine_defines_a_decrypt():
    # The base decrypt_line and decrypt_lines are defined in terms of each
    # other: an engine that defines neither would recurse forever.
    engines = _concrete_engines()
    assert {cls.__name__ for cls in engines} >= {
        name for name in repro.core.__all__ if name.endswith("Engine")
        and name not in ("BusEncryptionEngine", "BlockModeEngine",
                         "TweakedECBEngine")
    }
    for cls in engines:
        assert any(
            "decrypt_line" in vars(klass) or "decrypt_lines" in vars(klass)
            for klass in cls.__mro__[:cls.__mro__.index(BusEncryptionEngine)]
        ), cls.__name__


def test_every_core_engine_defines_an_encrypt():
    # Likewise encrypt_line and encrypt_lines; and no class defines both,
    # so every engine has exactly one write transform.
    for cls in _concrete_engines():
        below = cls.__mro__[:cls.__mro__.index(BusEncryptionEngine)]
        assert any("encrypt_line" in vars(klass)
                   or "encrypt_lines" in vars(klass)
                   for klass in below), cls.__name__
        for klass in below:
            assert not {"encrypt_line", "encrypt_lines"} <= set(vars(klass)), \
                klass.__name__


# -- write-path pins ------------------------------------------------------------
#
# Digests recorded while aegis, xom, stream, ds5002fp and TweakedECBEngine
# each still had a per-line encrypt_line beside its encrypt_lines, and
# stream had its own read-modify-write: the per-line transform stays the
# oracle the batched one must reproduce.

import hashlib

from repro.core import AegisEngine
from repro.obs import RecordingSink

_PIN_LINE = 32
_PIN_BASE = 0x400
#: Group widths in lines; aegis's 31/32/33 block columns straddle 32, the
#: rung switch these pins were recorded under.
_PIN_WIDTHS = (1, 5, 31, 32, 33)


def _pin_items(n):
    image = _DRBG(b"write-path-pins").random_bytes(n * _PIN_LINE)
    return [(_PIN_BASE + i * _PIN_LINE,
             image[i * _PIN_LINE: (i + 1) * _PIN_LINE]) for i in range(n)]


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _per_line(engine, items):
    return [engine.encrypt_line(addr, line) for addr, line in items]


def _bulk(engine, items):
    return engine.encrypt_lines(items)


def _encrypt_digest(name, encrypt, widths=_PIN_WIDTHS):
    """sha256 of ``encrypt(engine, group)`` run twice per pinned width on
    a fresh engine; the second pass sees the state the first advanced
    (stream versions, aegis vectors)."""
    out = []
    for width in widths:
        engine = make_engine(name)
        group = _pin_items(width)
        out.append([encrypt(engine, group), encrypt(engine, group)])
    return _digest(out)


_ENCRYPT_PINS = {
    "addr-scramble-stream":
        "ea1600dca97237e4cdf86f961d9562a815810c792155a7c0b8b1811d035a7138",
    "aegis":
        "827f10a1f101dabba0c0ce933a39db19e42f796ddb1c46042f5eab9f8b5dc4dd",
    "best":
        "01d9c4637116eefd61c4923e019607712740edebc5e4ec2e5acfeb4062ab70ea",
    "compress":
        "f7e220a7d14311e51d42603ce5c3f1fb5fdd6a1d5ad274b6628c97c806db8354",
    "ds5002fp":
        "d4380970a623420a5a20d6557d8fde0a029d77b85b56eba1d7e8a8a541170d50",
    "ds5240":
        "8aa970ca0147ed38ef5d02235bd35e25aa3c00436bc8f343da213d8b91e895ae",
    "gilmont":
        "50760bf5ec37337fe908c3d6801c25e7c3ebba93c3582c1b076026c550193b19",
    "integrity-stream":
        "f7e220a7d14311e51d42603ce5c3f1fb5fdd6a1d5ad274b6628c97c806db8354",
    "integrity-xom":
        "b12d7e97e92fa8e969ada344e214f29faab26e0f86beb571732b9e853db24de9",
    "merkle-stream":
        "f7e220a7d14311e51d42603ce5c3f1fb5fdd6a1d5ad274b6628c97c806db8354",
    "stream":
        "f7e220a7d14311e51d42603ce5c3f1fb5fdd6a1d5ad274b6628c97c806db8354",
    "xom":
        "b12d7e97e92fa8e969ada344e214f29faab26e0f86beb571732b9e853db24de9",
}


def test_encrypt_pins_cover_every_line_engine():
    # gi/vlsi are region/page granular and raise on encrypt_line.
    assert set(_ENCRYPT_PINS) == set(engine_names()) - {"gi", "vlsi"}


@pytest.mark.parametrize("name", sorted(_ENCRYPT_PINS))
def test_encrypt_lines_matches_pinned_per_line(name):
    assert _encrypt_digest(name, _bulk) == _ENCRYPT_PINS[name]
    assert _encrypt_digest(name, _per_line) == _ENCRYPT_PINS[name]


#: Wide groups, in lines: aegis's IV batch and block columns are one
#: block per line, so 511/512/513 straddle NUMPY_MIN_BLOCKS_AES = 512;
#: xom's are two per line, so 255/256/257 lines straddle it.  Recorded
#: when the narrow rung was the T-table loop.
_WIDE_PIN_WIDTHS = (255, 256, 257, 511, 512, 513)
_WIDE_ENCRYPT_PINS = {
    "aegis":
        "6cfa4010f2941d7a15f6e85e7601ff89c9d550f43108cf51a9e6555c3e18d046",
    "xom":
        "e9024757266f5f2cda8fa3965f4454d528e1ce7aaed0941c7001e95e043dc4f4",
}


def test_wide_pins_straddle_the_aes_rung_switch():
    switch = kernels.NUMPY_MIN_BLOCKS_AES
    assert {switch - 1, switch, switch + 1} <= set(_WIDE_PIN_WIDTHS)
    assert {2 * w for w in _WIDE_PIN_WIDTHS[:3]} \
        == {switch - 2, switch, switch + 2}


@pytest.mark.parametrize("name", sorted(_WIDE_ENCRYPT_PINS))
def test_encrypt_lines_matches_wide_pins(name):
    for encrypt in (_bulk, _per_line):
        assert _encrypt_digest(name, encrypt, _WIDE_PIN_WIDTHS) \
            == _WIDE_ENCRYPT_PINS[name]


#: Ragged widths and a repeated address, for aegis's per-line chains.
_AEGIS_RAGGED = ((0x400, 32), (0x420, 16), (0x440, 48), (0x400, 32),
                 (0x480, 64))


def _aegis_digest(iv_mode, encrypt):
    engine = AegisEngine(KEY, iv_mode=iv_mode)
    rng = _DRBG(b"aegis-ragged")
    items = [(addr, rng.random_bytes(n)) for addr, n in _AEGIS_RAGGED]
    return _digest(encrypt(engine, items), engine.issued_vectors,
                   sorted(engine._vectors.items()))


_AEGIS_PINS = {
    "counter":
        "5753de95290e224d8dce3a807ee6eea06b36edb377c97788d3ff21a0cc1dcdf3",
    "random":
        "3810508b3a14bcffd45bbf06de024ce0ef75d15605f452cf9d0b321e9ac7b9c2",
}


@pytest.mark.parametrize("iv_mode", sorted(_AEGIS_PINS))
@pytest.mark.parametrize("encrypt", [
    _per_line,
    _bulk,
    lambda engine, items: [engine.encrypt_lines([item])[0]
                           for item in items],
], ids=["per-line", "ragged-group", "one-line-groups"])
def test_aegis_groups_match_pinned_per_line(iv_mode, encrypt):
    assert _aegis_digest(iv_mode, encrypt) == _AEGIS_PINS[iv_mode]


#: (addr, nbytes) of the write_partial sweep over 32-byte lines:
#: unaligned, sub-block, one DES block, one AES block, an exact line,
#: line-spanning, two exact lines, a rewrite and a single byte.
_PARTIAL_WRITES = ((0x404, 3), (0x410, 4), (0x420, 8), (0x430, 16),
                   (0x440, 32), (0x45c, 8), (0x474, 40), (0x4a0, 64),
                   (0x404, 3), (0x4e1, 1))

#: label -> (registry name, overrides).
_PARTIAL_ENGINES = {
    "stream": ("stream", {}),
    "stream-pad-reuse": ("stream", {"reuse_pad_on_partial_write": True}),
    "aegis": ("aegis", {}),
    "gilmont": ("gilmont", {}),
    "best": ("best", {}),
    "integrity-stream": ("integrity-stream", {}),
    "integrity-xom": ("integrity-xom", {}),
    "merkle-stream": ("merkle-stream", _FILL_OVERRIDES["merkle-stream"]),
}

#: A tag or tree leaf covers one line, so a write past its line's end
#: breaks the next line's verdict: these engines sweep in-line writes only.
_LINE_GRANULAR = {"integrity-stream", "integrity-xom", "merkle-stream"}


def _partial_digest(label, functional):
    """sha256 over the sweep's returned cycles, the engine stats, every
    engine and bus event (payloads included) and the final memory."""
    name, overrides = _PARTIAL_ENGINES[label]
    engine = make_engine(name, functional=functional, **overrides)
    memory = MainMemory(MemoryConfig(size=1 << 21))
    image = b"".join(line for _, line in _pin_items(40))
    engine.install_image(memory, _PIN_BASE, image, line_size=_PIN_LINE)
    sink = RecordingSink()
    engine.attach_sink(sink)
    port = MemoryPort(memory, Bus(sink=sink))
    writes = [(addr, n) for addr, n in _PARTIAL_WRITES
              if label not in _LINE_GRANULAR
              or addr % _PIN_LINE + n <= _PIN_LINE]
    data = _DRBG(b"write-partial-sweep").random_bytes(
        sum(n for _, n in writes))
    cycles, pos = [], 0
    for addr, n in writes:
        cycles.append(engine.write_partial(port, addr, data[pos: pos + n],
                                           _PIN_LINE))
        pos += n
    events = [(e.kind, e.addr, e.size, e.detail, bytes(e.data))
              for e in sink.events]
    return _digest(cycles, sorted(vars(engine.stats).items()), events,
                   memory.dump(_PIN_BASE, len(image)))


_PARTIAL_PINS = {
    ("stream", True):
        "b28f60a245400c0d582593977e92505d6d141437260e576e088ad0b010d4b7b7",
    ("stream", False):
        "a3215b2521e3477ed15dd356585966a183dfe033a9bb99482f6267165a2928aa",
    ("stream-pad-reuse", True):
        "4b9e07428a76ee193df816ea2e5f0bd39c2f075d8e8a1f22f1dbc7bf64e66a7b",
    ("stream-pad-reuse", False):
        "ffb2098b54e401376397ae72a40ccb9a623fab3c9c0b8bad1171593fca5540f2",
    ("aegis", True):
        "61056d0168e9a41f0fddb8ba70aec453291cc6104ed79de89858b7003d9e159d",
    ("aegis", False):
        "8c2ef908171c69b542b0b6ad8e5829dc2cc9b27a3a7a0537b250c6e653fdfced",
    ("gilmont", True):
        "7d1dc1af447a1d45bee45b22a492d2ed2a269abcb700b52af4676ef2ca1e286e",
    ("gilmont", False):
        "1a04939da4299efff2d3cc6e542d436ad0de9092c41bbfd2ab5f613b3f3e2fba",
    ("best", True):
        "739f41182f46ab4126aacb1bb2cb63db464641feabeea0bce348770e21a5f4f3",
    ("best", False):
        "58a2bdd5693679e72d2f527fc77d232f8510860fec2d6a78b6ad4262dc0b0435",
    ("integrity-stream", True):
        "71df9dc66674a8a51859b7bfdd72540c6864656a339c71a2e31438f19ba90211",
    ("integrity-stream", False):
        "2084d1ca0f6d9b92d21a0643d4dfd97377c339d0d2484764331c5a14335ad9fc",
    ("integrity-xom", True):
        "f10113967fce6f7a891b498dc19e8ad2f545d58ca02c365c9464a7db3bef4f80",
    ("integrity-xom", False):
        "104fad76ba473a6c07ee3193fee48dac15c62becfabb838c5f38ed406e6d9bea",
    ("merkle-stream", True):
        "7b3d3ade34224717ffd19a57d0a0e202ce36fddf28dd11a481446451d625194b",
    ("merkle-stream", False):
        "1400124e8910f326b8657ac2ec50f56914f3b2ab07fcf1dc19146e0478efc412",
}


@pytest.mark.parametrize("functional", [True, False],
                         ids=["functional", "timing-only"])
@pytest.mark.parametrize("label", sorted(_PARTIAL_ENGINES))
def test_write_partial_matches_pin(label, functional):
    assert _partial_digest(label, functional) == \
        _PARTIAL_PINS[label, functional]


# -- line-authenticating wrappers: a verified fill group ----------------------

from repro.core import TamperDetected
from repro.core.merkle import MerkleTamperDetected

#: The wrappers that verify every fill line through ``_verify_fill``, and
#: the exception each raises on a tampered line.
_VERIFIED = {
    "integrity-stream": TamperDetected,
    "integrity-xom": TamperDetected,
    "merkle-stream": MerkleTamperDetected,
}

#: Sixteen installed lines, the executor's widest fill group.
_GROUP = [_PIN_BASE + i * _PIN_LINE for i in range(16)]

#: Lines the rig rewrites before the group, and their new plaintext.
_REWRITTEN = (3, 7)
_NEW_LINE = bytes(range(_PIN_LINE))


def _verified_rig(name):
    """An installed wrapper aged by one fill group elsewhere and two
    writebacks inside :data:`_GROUP`, so its tag or node cache and its
    versions hold state before the group under test."""
    engine = make_engine(name, **_FILL_OVERRIDES.get(name, {}))
    memory = MainMemory(MemoryConfig(size=1 << 21))
    image = b"".join(line for _, line in _pin_items(64))
    engine.install_image(memory, _PIN_BASE, image, line_size=_PIN_LINE)
    sink = RecordingSink()
    engine.attach_sink(sink)
    port = MemoryPort(memory, Bus(sink=sink))
    engine.fill_lines(port, [addr + 16 * _PIN_LINE for addr in _GROUP],
                      _PIN_LINE)
    for position in _REWRITTEN:
        engine.write_line(port, _GROUP[position], _NEW_LINE)
    return engine, port, sink, image


@pytest.mark.parametrize("name", sorted(_VERIFIED))
def test_verified_group_is_one_inner_decrypt(name, monkeypatch):
    engine, port, _, image = _verified_rig(name)
    calls = []
    decrypt_lines = engine.inner.decrypt_lines

    def spy(items):
        calls.append(len(items))
        return decrypt_lines(items)

    monkeypatch.setattr(engine.inner, "decrypt_lines", spy)
    filled = engine.fill_lines(port, _GROUP, _PIN_LINE)
    assert calls == [len(_GROUP)]
    expected = [_NEW_LINE if i in _REWRITTEN
                else image[i * _PIN_LINE: (i + 1) * _PIN_LINE]
                for i in range(len(_GROUP))]
    assert [plain for plain, _ in filled] == expected


def _tamper_digest(name, position):
    """Flip one ciphertext bit of the group's line at ``position``, fill
    the group; sha256 over the raised exception type, the outer and inner
    stats, the verdicts, the tag or node cache, the versions (or root) and
    every engine and bus event, payloads included."""
    engine, port, sink, _ = _verified_rig(name)
    target = _GROUP[position]
    port.memory.load_image(target,
                           bytes([port.memory.dump(target, 1)[0] ^ 0x80]))
    with pytest.raises(TamperDetected) as caught:
        engine.fill_lines(port, _GROUP, _PIN_LINE)
    assert type(caught.value) is _VERIFIED[name]
    if name == "merkle-stream":
        state = (list(engine._node_cache.items()), engine.cache_stops,
                 engine.root)
    else:
        state = ([(addr, bytes(block))
                  for addr, block in engine._tag_cache.items()],
                 engine.tag_cache_hits, engine.tag_cache_misses,
                 sorted(engine._versions.items()))
    events = [(e.kind, e.addr, e.size, e.detail, bytes(e.data))
              for e in sink.events]
    return _digest(type(caught.value).__name__,
                   sorted(vars(engine.stats).items()),
                   sorted(vars(engine.inner.stats).items()),
                   vars(engine.verdicts), state, events)


_TAMPER_PINS = {
    ("integrity-stream", 0):
        "5d521898d88465c4db2ecc79884cc0a084105ba89a6ff0410827dd532cbc9bc3",
    ("integrity-stream", 7):
        "08c0af49759087e0c00c3f83aa486b8917b43ad7b7a3e759d302e7fc91701629",
    ("integrity-stream", 15):
        "e9502bcf0b54bc7d8a03cd2db2bd74a198703636742e9eb86cce1442611c75b9",
    ("integrity-xom", 0):
        "b5d54945c8a918a565add4fd476d0834a572a6a2e729be239d08b057818604b6",
    ("integrity-xom", 7):
        "4670719070db68c0e78f6b6b6dab3618c966c779337c91db50e91c1608b6547c",
    ("integrity-xom", 15):
        "ab2edb4344727ec863d78e2eaa1ec8feb63762394cfa99322d6a7dc40ad5c38d",
    ("merkle-stream", 0):
        "0d162ef5459f3c1634638147467d3616d0cebc7291e9e9004c31fb00c7961f5c",
    ("merkle-stream", 7):
        "f385b204879114826ce6b1d883ec13e9a39c8d2f8a7eb2cb4bcf88a76373e01e",
    ("merkle-stream", 15):
        "ddb0ff60a1274ccba0fb4884d949b8312a4b31f9a9d86a3c3f75c208d2ca1385",
}


@pytest.mark.parametrize("position", [0, 7, 15])
@pytest.mark.parametrize("name", sorted(_VERIFIED))
def test_tampered_group_matches_pin(name, position):
    assert _tamper_digest(name, position) == _TAMPER_PINS[name, position]


# -- the end-of-run barrier (flush) ---------------------------------------------

from repro.sim import TwoLevelSystem
from repro.sim.system import store_payload


@pytest.mark.parametrize("system_cls", [SecureSystem, TwoLevelSystem])
@pytest.mark.parametrize("name", engine_names())
def test_flush_drains_the_engine_buffer(name, system_cls):
    """A store, then flush(), reaches external memory for every engine:
    flush drains the caches and then the engine's own write buffer
    (vlsi's page buffer held the store back)."""
    # Compress's code lines are read-only: store into its data region.
    addr = 0x2020 if name == "compress" else 0x1020
    system = system_cls(engine=make_engine(name),
                        mem_config=MemoryConfig(size=4 << 20))
    system.install_image(0, bytes(8192))
    system.step(Access(AccessKind.STORE, addr, 4))
    system.flush()
    assert system.read_plaintext(addr, 4) == store_payload(addr, 4)


class TestNoReferenceCycle:
    """A finished run's system, and the memory it holds, go as soon as the
    last reference does: nothing in a system refers back to it strongly,
    so freeing one never waits for the cyclic GC."""

    @staticmethod
    def _freed_without_gc(make_system, trace):
        gc.collect()
        gc.disable()
        try:
            system = make_system()
            system.run(trace)
            refs = [weakref.ref(system), weakref.ref(system.memory)]
            del system
            return [ref() is None for ref in refs]
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", [None] + engine_names())
    def test_secure_system(self, name):
        trace = make_bench_trace(300, fetch_only=name == "compress")
        freed = self._freed_without_gc(lambda: build(name), trace)
        assert freed == [True, True]

    @pytest.mark.parametrize("edu_level", [EDU_L2_MEMORY, EDU_L1_L2])
    def test_two_level_system(self, edu_level):
        freed = self._freed_without_gc(
            lambda: TwoLevelSystem(XomAesEngine(KEY), edu_level=edu_level),
            make_bench_trace(300))
        assert freed == [True, True]

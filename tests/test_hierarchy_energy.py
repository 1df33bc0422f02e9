"""Two-level hierarchy with a movable EDU, and the energy model."""

import hashlib

import pytest

from repro.core import StreamCipherEngine, XomAesEngine
from repro.core.registry import engine_names, make_engine
from repro.crypto import DRBG
from repro.obs import CounterSink, RecordingSink
from repro.sim import (
    EDU_L1_L2,
    EDU_L2_MEMORY,
    CacheConfig,
    EnergyModel,
    EnergyReport,
    MemoryConfig,
    TwoLevelSystem,
    WritePolicy,
    estimate_run,
)
from repro.sim.system import store_payload
from repro.traces import (
    Access,
    AccessKind,
    iter_sequential_code,
    make_workload,
)

from .reference_hierarchy import ReferenceTwoLevel
from .reference_model import make_bench_trace, record_bus

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
        # Fits L2, not L1.
        trace = list(iter_sequential_code(2000, code_size=4096))
        system.run(list(trace))
        # Second pass over the same code: L2 hits, no new memory reads.
        reads_after_warmup = system.memory.reads
        for access in iter_sequential_code(2000, code_size=4096):
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

    @pytest.mark.parametrize("level", ["L1", "L2"])
    @pytest.mark.parametrize("policy", [
        dict(write_policy=WritePolicy.WRITE_THROUGH),
        dict(write_allocate=False),
    ], ids=["write-through", "no-write-allocate"])
    def test_non_write_back_allocate_level_is_rejected(self, level, policy):
        """The L2 port moves whole lines, so a write-through or
        no-write-allocate level would lose stores (a write-through L1
        used to drop both of two stores at flush())."""
        config = CacheConfig(size=1024 if level == "L1" else 8192,
                             line_size=32, associativity=2, **policy)
        with pytest.raises(ValueError, match=level):
            make_system(**{f"{level.lower()}_config": config})

    def test_two_levels_beat_one_on_reuse(self):
        """The L2 pays off when the working set fits it but not L1."""
        from repro.sim import SecureSystem

        trace = list(iter_sequential_code(4000, code_size=4096))
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


@pytest.mark.parametrize("name", engine_names())
def test_l1_l2_engine_is_rejected_or_round_trips(name):
    """At the L1-L2 boundary every registry engine is either refused at
    construction or modelled exactly: a fetched L1 line equals the
    installed image, and a store reads back after flush()."""
    try:
        system = make_system(engine=make_engine(name), edu_level=EDU_L1_L2,
                             mem_config=MemoryConfig(size=4 << 20))
    except ValueError as exc:
        assert EDU_L1_L2 in str(exc)
        return
    image = DRBG(11).random_bytes(8192)
    system.install_image(0, image)
    system.step(Access(AccessKind.FETCH, 0x40, 4))
    assert bytes(system._l1_data[2]) == image[0x40:0x60]
    system.step(Access(AccessKind.STORE, 0x1020, 4))
    system.flush()
    assert system.read_plaintext(0x1020, 4) == store_payload(0x1020, 4)


def _l1_l2_engines():
    """Registry engines the L1-L2 boundary accepts."""
    accepted = []
    for name in engine_names():
        try:
            make_system(engine=make_engine(name, functional=False),
                        edu_level=EDU_L1_L2)
        except ValueError:
            continue
        accepted.append(name)
    return accepted


L1_L2_ENGINES = _l1_l2_engines()


def _mixed(n=2000):
    return [type(a)(a.kind, a.addr % 8192, a.size)
            for a in make_workload("mixed", n=n)]


class TestL1L2Accounting:
    """At the L1-L2 boundary the engine's fills and writebacks go through
    its own fill and store path: the extra cycles it adds are counted in
    its stats and reported as stalls."""

    @pytest.mark.parametrize("name", L1_L2_ENGINES)
    def test_stats_and_stalls_equal_the_cycles_added(self, name):
        engine = make_engine(name, functional=False)
        extras = []
        for hook, kind in (("read_extra_cycles", "decipher"),
                           ("write_extra_cycles", "encipher")):
            def recorded(*args, _inner=getattr(engine, hook), _kind=kind):
                extra = _inner(*args)
                extras.append((_kind, extra))
                return extra
            setattr(engine, hook, recorded)
        sink = RecordingSink()
        system = make_system(engine=engine, edu_level=EDU_L1_L2, sink=sink)
        baseline = make_system(edu_level=EDU_L1_L2)
        trace = _mixed()
        report = system.run(trace)
        baseline.run(trace)

        stats = engine.stats
        added = report.cycles - baseline.cycles
        assert added > 0
        assert stats.extra_read_cycles == sum(
            e for kind, e in extras if kind == "decipher")
        assert stats.extra_write_cycles == sum(
            e for kind, e in extras if kind == "encipher")
        assert stats.extra_read_cycles + stats.extra_write_cycles == added
        assert report.engine_extra_read_cycles == stats.extra_read_cycles

        events = sink.events
        cipher = [i for i, ev in enumerate(events)
                  if ev.kind in ("decipher", "encipher")]
        assert [events[i].kind for i in cipher] == [k for k, _ in extras]
        for i, (_, extra) in zip(cipher, extras):
            if extra:
                stall = events[i + 1]
                assert (stall.kind, stall.size, stall.addr) == \
                    ("stall", extra, events[i].addr)
        assert sum(ev.kind == "stall" for ev in events) == \
            sum(1 for _, extra in extras if extra)

    @pytest.mark.parametrize("edu_level", [EDU_L2_MEMORY, EDU_L1_L2])
    def test_one_fill_event_per_l1_fill(self, edu_level):
        sink = CounterSink()
        system = make_system(engine=make_engine("xom", functional=False),
                             edu_level=edu_level, sink=sink)
        report = system.run(_mixed())
        assert sink.get("fill") == report.cache_misses == system.l1.misses
        assert sink.get("access") == report.accesses
        # The L2 port reports its own lookups, which are the L1's fills
        # and writebacks.
        assert sink.get("hit") + sink.get("miss") == \
            system.l1.hits + system.l1.misses + system.l2.hits \
            + system.l2.misses
        assert system.l2.hits + system.l2.misses == \
            system.l1.misses + system.l1.writebacks

    def test_stream_fill_runs_its_own_fill_path(self):
        """The modelling change of the executor-composed hierarchy, seen
        on the stream engine: at L1-L2 its fill is its own
        ``fill_lines``, so the pad overlaps the L2 access (``mem_cycles``
        is the L2's cycles, as it is memory's at L2-memory) and the
        pad-ahead runs.  Undoing both reproduces the hand-rolled L1's
        cycle count."""
        def run(pad_ahead=True, overlap=True):
            engine = make_engine("stream", functional=False)
            seen = []
            inner = engine.read_extra_cycles

            def spy(addr, nbytes, mem_cycles):
                seen.append(mem_cycles)
                return inner(addr, nbytes, mem_cycles if overlap else 0)
            engine.read_extra_cycles = spy
            if not pad_ahead:
                engine.pad_ahead_depth = 0
            system = make_system(engine=engine, edu_level=EDU_L1_L2)
            system.install_image(0, bytes(8192))
            cycles = system.run(_mixed(3000)).cycles
            return cycles, seen, engine.stats

        cycles, seen, stats = run()
        assert cycles == 29600
        assert min(seen) == 8       # an L2 hit: the L2 hit latency
        assert max(seen) > 8 + 60   # an L2 miss: plus the memory fetch
        assert stats.pad_hits > 0
        assert run(overlap=False)[0] == 33103
        assert run(pad_ahead=False)[0] == 30762
        assert run(pad_ahead=False, overlap=False)[0] == 37273


#: Small levels, so the trace keeps both caches evicting.
_DIFF_L1 = CacheConfig(size=512, line_size=32, associativity=2,
                       hit_latency=1)
_DIFF_L2 = CacheConfig(size=2048, line_size=32, associativity=4,
                       hit_latency=8)
_DIFF_IMAGE = DRBG(b"hierarchy-image").random_bytes(16384)


def _observe(build, name, edu_level, functional, write_buffer, trace):
    """Run ``trace`` then flush on a hierarchy ``build`` makes; returns
    (report, engine stats, event totals, event bytes, bus stream, memory
    digest) after the run and after the flush, or None if the engine is
    refused."""
    counter = CounterSink()
    engine = make_engine(name, functional=functional) if name else None
    try:
        system = build(engine, l1_config=_DIFF_L1, l2_config=_DIFF_L2,
                       mem_config=MemoryConfig(size=1 << 21, latency=60),
                       edu_level=edu_level, write_buffer=write_buffer,
                       sink=counter)
    except ValueError:
        return None
    system.install_image(0, _DIFF_IMAGE)
    bus = record_bus(system)
    states = []
    report = system.run(trace)
    for _ in range(2):
        report = system.report(report.label)
        states.append((report, vars(system.engine.stats).copy(),
                       counter.summary(), counter.bytes_summary(), list(bus),
                       hashlib.sha256(system.memory.dump(0, 1 << 21))
                       .hexdigest()))
        system.flush()
    return states


@pytest.mark.parametrize("write_buffer", [True, False],
                         ids=["posted", "blocking"])
@pytest.mark.parametrize("edu_level", [EDU_L2_MEMORY, EDU_L1_L2])
@pytest.mark.parametrize("name", [None] + engine_names())
def test_matches_the_scalar_hierarchy(name, edu_level, write_buffer):
    """The executor-composed hierarchy equals the one-access-at-a-time
    oracle in ``tests/reference_hierarchy.py``: report, engine stats,
    per-kind event totals, bus stream and memory, before and after
    ``flush()``, for
    every engine a level accepts, functional and timing-only."""
    trace = make_bench_trace(400, fetch_only=name == "compress")
    for functional in (True, False):
        got = _observe(
            lambda engine, **kw: TwoLevelSystem(engine=engine, **kw),
            name, edu_level, functional, write_buffer, trace)
        if got is None:
            assert edu_level == EDU_L1_L2
            return
        want = _observe(ReferenceTwoLevel, name, edu_level, functional,
                        write_buffer, trace)
        assert got == want


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
        report = system.run(list(iter_sequential_code(500, code_size=4096)))
        energy = estimate_run(report, engine)
        assert energy.items["cipher"] > 0
        assert energy.total_pj > energy.items["cipher"]

    def test_encryption_costs_energy(self):
        from repro.sim import SecureSystem

        trace = list(iter_sequential_code(800, code_size=8192))

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

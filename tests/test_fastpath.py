"""Batched trace execution: equivalence with the scalar reference model.

The executor's contract (see :mod:`repro.sim.fastpath`) is pinned here
against the one-access-at-a-time oracle in ``tests/reference_model.py``:
identical :class:`SimReport`, identical bus transaction stream (content
*and* order), identical :class:`CounterSink` aggregate totals — for every
registered engine and for the cache corner cases (LRU conflict eviction,
write-through stores, no-write-allocate bypass, dirty-victim writebacks)
through both the oracle and the executor.
"""

import pytest

from repro.attacks import BusProbe
from repro.core.engine import TamperDetected
from repro.core.registry import engine_names, make_engine
from repro.obs import (
    CounterSink,
    EventSink,
    NullSink,
    RecordingSink,
    RingBufferSink,
    TeeSink,
    TraceEvent,
)
from repro.sim.cache import CacheConfig, WritePolicy
from repro.sim.fastpath import CompiledTrace, compile_trace
from repro.sim.memory import MemoryConfig
from repro.sim.system import SecureSystem, store_payload
from repro.traces import make_workload
from repro.traces.stream import TraceStream, chunked
from repro.traces.trace import Access, AccessKind

from .reference_model import (
    build,
    bus_log,
    bus_view,
    differential,
    make_bench_trace,
    record_bus,
    replay,
    run_observed,
    view_problems,
)

LINE = 32


def _system(sink=None, **cache_kwargs):
    kwargs = dict(size=4 * LINE, line_size=LINE, associativity=2)
    kwargs.update(cache_kwargs)
    system = SecureSystem(
        engine=None, cache_config=CacheConfig(**kwargs),
        mem_config=MemoryConfig(size=1 << 16), sink=sink,
    )
    system.install_image(0, bytes(range(256)) * 16)
    return system


PATHS = ["reference", "fast"]


def _both_paths(trace, **cache_kwargs):
    """Run the trace through the oracle and the executor on twin systems."""
    out = []
    for path in PATHS:
        sink, probe = CounterSink(), BusProbe()
        system = _system(sink=TeeSink(sink, probe), **cache_kwargs)
        report, _ = _run_one(system, trace, path)
        out.append((system, report, sink, bus_log(probe)))
    return out


def _run_one(system, trace, path):
    """Run ``trace`` through ``path``; returns the report and the final
    LRU order per set (LRU first) of whichever model ran."""
    if path == "reference":
        sets = [list(s) for s in replay(system, trace)]
        return system.report(system.engine.name), sets
    report = system.run(trace)
    return report, [list(s) for s in system.cache._sets]


class TestEngineDifferential:
    """Every registered engine: the oracle and the executor agree."""

    @pytest.mark.parametrize("name", [None] + engine_names(),
                             ids=lambda n: n or "baseline")
    def test_reference_vs_fast(self, name):
        assert differential(name, n=1200) == []

    @pytest.mark.parametrize("name", [None, "stream", "xom", "aegis"],
                             ids=lambda n: n or "baseline")
    @pytest.mark.parametrize("chunk", [1, 37, 5000])
    def test_chunked_vs_whole(self, name, chunk):
        """The chunk-streamed executor is byte-identical to the scalar
        oracle at any chunk size (1 = boundary between every access;
        5000 > n = one oversized chunk)."""
        assert differential(name, n=1200, chunk=chunk) == []


class TestStepIsOneAccessRun:
    @pytest.mark.parametrize("name", [None, "stream", "aegis"],
                             ids=lambda n: n or "baseline")
    def test_step_loop_equals_run(self, name):
        trace = make_bench_trace(300)
        outcomes = []
        for stepped in (True, False):
            system = build(name)
            transactions = record_bus(system)
            if stepped:
                for access in trace:
                    system.step(access)
                report = system.report(system.engine.name)
            else:
                report = system.run(trace)
            outcomes.append((report, bus_view(
                transactions, system.engine.line_independent, LINE),
                system.memory.dump(0, system.memory.config.size)))
        assert outcomes[0] == outcomes[1]


def _spy(engine):
    """Log every fill and spill group ``engine`` serves, as ("fill" or
    "spill", [line addresses]) in call order."""
    calls = []
    fill, spill = engine.fill_lines, engine.spill_lines

    def fill_lines(port, addrs, line_size):
        calls.append(("fill", list(addrs)))
        return fill(port, addrs, line_size)

    def spill_lines(port, items):
        calls.append(("spill", [addr for addr, _ in items]))
        return spill(port, items)

    engine.fill_lines, engine.spill_lines = fill_lines, spill_lines
    return calls


#: Lines 0, 16 and 32 share set 0 of the :func:`build` cache (2-way,
#: 16 sets of 32-byte lines).
_SET_STRIDE = 16 * LINE


class TestBatchedWriteSide:
    """Store-miss fills defer with their patches, and a line-independent
    engine's spills queue behind fills: the orderings the queues must keep."""

    ENGINES = [None, "stream", "xom", "aegis"]

    def _both(self, name, trace):
        """(reference, executor) systems after ``trace``, and the
        executor's group log."""
        reference = build(name)
        replay(reference, trace)
        fast = build(name)
        calls = _spy(fast.engine)
        fast.run(trace)
        return reference, fast, calls

    def _assert_same_state(self, reference, fast):
        assert fast.report("x") == reference.report("x")
        size = fast.memory.config.size
        assert fast.memory.dump(0, size) == reference.memory.dump(0, size)
        assert fast._line_data == reference._line_data

    @pytest.mark.parametrize("name", ENGINES, ids=lambda n: n or "baseline")
    def test_store_miss_evicted_before_its_fill_lands(self, name):
        """The store's patch must reach the spill of its line."""
        trace = [Access(AccessKind.STORE, 4, 4),
                 Access(AccessKind.LOAD, _SET_STRIDE, 4),
                 Access(AccessKind.LOAD, 2 * _SET_STRIDE, 4)]
        reference, fast, calls = self._both(name, trace)
        self._assert_same_state(reference, fast)
        # Line 0 was still pending when line 32 evicted it, so its fill
        # landed first, then it spilled with the store's bytes.
        assert calls[0] == ("fill", [0, _SET_STRIDE])
        assert ("spill", [0]) in calls
        assert fast.read_plaintext(4, 4) == store_payload(4, 4)

    @pytest.mark.parametrize("name", ENGINES, ids=lambda n: n or "baseline")
    def test_fill_of_a_line_with_a_queued_spill(self, name):
        """A line refilled after it spilled reads the spilled bytes."""
        trace = [Access(AccessKind.STORE, 4, 4),
                 Access(AccessKind.LOAD, _SET_STRIDE, 4),
                 Access(AccessKind.LOAD, 2 * _SET_STRIDE, 4),
                 Access(AccessKind.LOAD, 0, 4)]
        reference, fast, calls = self._both(name, trace)
        self._assert_same_state(reference, fast)
        assert fast._line_data[0][4:8] == store_payload(4, 4)
        if fast.engine.line_independent:
            # The spill of line 0 waited for the end of the run, and went
            # out just ahead of the fill group that reads it back.
            assert calls[-2:] == [("spill", [0]),
                                  ("fill", [2 * _SET_STRIDE, 0])]

    def test_write_heavy_fill_groups_are_wide(self):
        """On a write-heavy stream, aegis fills arrive in groups averaging
        more than 8 lines: a store miss no longer flushes its group."""
        system = SecureSystem(
            engine=make_engine("aegis"),
            cache_config=CacheConfig(size=4096, line_size=32,
                                     associativity=2),
            mem_config=MemoryConfig(size=1 << 21))
        system.install_image(0, bytes(32 * 1024))
        calls = _spy(system.engine)
        system.run([Access(a.kind, a.addr % (32 * 1024), a.size)
                    for a in make_workload("write-heavy", n=2000)])
        groups = [len(addrs) for op, addrs in calls if op == "fill"]
        assert sum(groups) / len(groups) > 8


class TestCacheCorners:
    """Cache semantics corner cases, through the oracle and the executor."""

    @pytest.mark.parametrize("path", PATHS)
    def test_lru_eviction_order_under_conflicts(self, path):
        # 2-way, 2 sets: lines 0, 2, 4 all map to set 0.  After touching
        # 0 then 2, re-touching 0 makes 2 the LRU way, so line 4 must
        # evict 2 (not 0) — the classic move-to-MRU check.
        trace = [Access(addr=line * LINE, kind=AccessKind.LOAD, size=4)
                 for line in (0, 2, 0, 4, 0)]
        report, sets = _run_one(_system(), trace, path)
        # Line 0 stays resident throughout: hits on the 3rd and 5th access.
        assert report.cache_hits == 2
        assert report.cache_misses == 3
        assert sets[0] == [4, 0]  # LRU -> MRU: the final hit made 0 MRU

    @pytest.mark.parametrize("path", PATHS)
    def test_dirty_victim_writeback_address(self, path):
        # Write line 2 (dirty), then force its eviction via lines 0 and 4
        # (same set).  The writeback on the bus must carry line 2's byte
        # address, with the bytes the store patched in.
        trace = [
            Access(addr=2 * LINE + 4, kind=AccessKind.STORE, size=4),
            Access(addr=0, kind=AccessKind.LOAD, size=4),
            Access(addr=4 * LINE, kind=AccessKind.LOAD, size=4),
        ]
        system = _system()
        transactions = record_bus(system)
        report, _ = _run_one(system, trace, path)
        assert report.writebacks == 1
        writes = [t for t in transactions if t[0] == "write"]
        assert len(writes) == 1
        assert writes[0][1] == 2 * LINE
        # The store patched deterministic filler bytes at offset 4.
        expected = bytes((2 * LINE + 4 + i) & 0xFF for i in range(4))
        assert writes[0][2][4:8] == expected

    @pytest.mark.parametrize("path", PATHS)
    def test_write_through_store_hits_memory(self, path):
        trace = [
            Access(addr=0, kind=AccessKind.LOAD, size=4),
            Access(addr=4, kind=AccessKind.STORE, size=4),
            Access(addr=8, kind=AccessKind.STORE, size=4),
        ]
        system = _system(write_policy=WritePolicy.WRITE_THROUGH)
        report, _ = _run_one(system, trace, path)
        # Both stores hit the resident line yet still write memory.
        assert report.cache_hits == 2
        assert report.writebacks == 0
        assert report.mem_writes == 2
        assert system.memory.dump(4, 4) == bytes(
            (4 + i) & 0xFF for i in range(4))

    @pytest.mark.parametrize("path", PATHS)
    def test_no_write_allocate_store_miss_bypasses(self, path):
        trace = [
            Access(addr=8 * LINE, kind=AccessKind.STORE, size=4),
            Access(addr=8 * LINE, kind=AccessKind.LOAD, size=4),
        ]
        system = _system(write_policy=WritePolicy.WRITE_THROUGH,
                         write_allocate=False)
        report, sets = _run_one(system, trace, path)
        # The store miss must not have installed the line: the load
        # misses again and fills it.
        assert report.cache_misses == 2
        assert report.cache_hits == 0
        assert report.mem_writes == 1
        assert 8 in sets[8 % system.cache.config.num_sets]

    def test_corner_configs_reference_equals_fast(self):
        trace = make_bench_trace(600, seed=13)
        for cache_kwargs in (
            {},
            {"write_policy": WritePolicy.WRITE_THROUGH},
            {"write_policy": WritePolicy.WRITE_THROUGH,
             "write_allocate": False},
            {"associativity": 1},
        ):
            (_, ref_report, ref_sink, ref_bus), \
                (_, fast_report, fast_sink, fast_bus) = _both_paths(
                    trace, **cache_kwargs)
            assert ref_report == fast_report, cache_kwargs
            assert ref_sink.summary() == fast_sink.summary(), cache_kwargs
            assert ref_sink.bytes_summary() == fast_sink.bytes_summary()
            assert ref_bus == fast_bus, cache_kwargs


class TestCompiledTrace:
    def test_runs_coalesce_consecutive_same_line(self):
        trace = [
            Access(addr=0, kind=AccessKind.FETCH, size=4),
            Access(addr=4, kind=AccessKind.LOAD, size=4),
            Access(addr=8, kind=AccessKind.STORE, size=4),
            Access(addr=LINE, kind=AccessKind.LOAD, size=4),
            Access(addr=0, kind=AccessKind.LOAD, size=4),
        ]
        compiled = compile_trace(trace, LINE)
        assert isinstance(compiled, CompiledTrace)
        assert len(compiled) == 5
        assert list(compiled) == trace
        # (start, count, line, n_fetch, n_load, n_store, bytes,
        #  head_kind, head_addr, head_size, store_pairs)
        assert compiled.runs == [
            (0, 3, 0, 1, 1, 1, 12, AccessKind.FETCH, 0, 4, ((8, 4),)),
            (3, 1, 1, 0, 1, 0, 4, AccessKind.LOAD, LINE, 4, ()),
            (4, 1, 0, 0, 1, 0, 4, AccessKind.LOAD, 0, 4, ()),
        ]

    def test_compiled_trace_passes_through(self):
        trace = [Access(addr=0, kind=AccessKind.LOAD, size=4)]
        compiled = compile_trace(trace, LINE)
        assert compile_trace(compiled, LINE) is compiled
        # A different line size forces recompilation over the same list.
        recompiled = compile_trace(compiled, 16)
        assert recompiled is not compiled
        assert recompiled.accesses is compiled.accesses

    def test_replay_against_many_systems(self):
        trace = make_bench_trace(300, seed=5)
        compiled = compile_trace(trace, LINE)
        first = _system().run(compiled)
        second = _system().run(compiled)
        assert first == second
        assert _system().run(list(trace)) == first


class TestEmitBulk:
    def _events(self):
        return lambda: (
            TraceEvent(kind="hit", addr=32 * i, size=LINE, cycle=i)
            for i in range(5)
        )

    def test_counter_sink_aggregates_without_materializing(self):
        sink = CounterSink()
        calls = []

        def factory():
            calls.append(1)
            return iter(())

        sink.emit_bulk("hit", 5, 5 * LINE, factory)
        assert sink.get("hit") == 5
        assert sink.bytes_for("hit") == 5 * LINE
        assert calls == []  # aggregate-only sinks never build the events

    def test_counter_sink_bulk_matches_scalar(self):
        bulk, scalar = CounterSink(), CounterSink()
        bulk.emit_bulk("hit", 5, 5 * LINE, self._events())
        for event in self._events()():
            scalar.emit(event)
        assert bulk.summary() == scalar.summary()
        assert bulk.bytes_summary() == scalar.bytes_summary()

    @pytest.mark.parametrize("sink_cls", [RingBufferSink, RecordingSink])
    def test_event_keeping_sinks_materialize(self, sink_cls):
        sink = sink_cls()
        sink.emit_bulk("hit", 5, 5 * LINE, self._events())
        assert sink.get("hit") == 5
        assert len(sink.events) == 5
        assert [e.cycle for e in sink.events] == list(range(5))

    def test_tee_fans_out_and_reinvokes_factory(self):
        counter = CounterSink()
        recorder = RecordingSink()
        calls = []
        base = self._events()

        def factory():
            calls.append(1)
            return base()

        TeeSink(counter, NullSink(), recorder).emit_bulk(
            "hit", 5, 5 * LINE, factory)
        assert counter.get("hit") == 5
        assert len(recorder.events) == 5
        # Only the event-keeping sink invoked the factory.
        assert len(calls) == 1

    def test_system_totals_identical_with_event_keeping_sink(self):
        """A materializing sink sees the same totals either path."""
        trace = make_bench_trace(400, seed=21)
        totals = []
        for path in PATHS:
            sink = RecordingSink()
            _run_one(_system(sink=sink), trace, path)
            totals.append((sink.summary(), sink.bytes_summary()))
        assert totals[0] == totals[1]


class _CountOnlyBaseBulk(CounterSink):
    """A count-only sink that wrongly asks ``emit_bulk`` for the events."""

    emit_bulk = EventSink.emit_bulk


class _NoEventCounter(CounterSink):
    """A CounterSink that fails if any site hands it a TraceEvent."""

    def emit(self, event):
        raise AssertionError(f"count-only sink was given {event!r}")


class TestCountOnlyTallies:
    """A count-only sink gets the executor's per-access kinds as one tally
    per kind; its totals equal an event-keeping sink's on the same run."""

    @staticmethod
    def _observe(name, sink, trace, mode):
        system = build(name, sink=sink)
        if mode == "step":
            for access in trace:
                system.step(access)
        elif mode == "chunk1":
            system.run(TraceStream(lambda: chunked(trace, 1),
                                   length=len(trace)))
        else:
            system.run(trace)
        return (system.report(system.engine.name), sink.summary(),
                sink.bytes_summary())

    @pytest.mark.parametrize("name", [None] + engine_names(),
                             ids=lambda n: n or "baseline")
    @pytest.mark.parametrize("mode", ["whole", "chunk1", "step"])
    def test_counter_equals_recording(self, name, mode):
        trace = make_bench_trace(500, fetch_only=name == "compress")
        counted = self._observe(name, _NoEventCounter(), trace, mode)
        recorded = self._observe(name, RecordingSink(), trace, mode)
        assert counted == recorded
        assert counted[1]["access"] == len(trace)

    @pytest.mark.parametrize("name", ["integrity-stream", "integrity-xom",
                                      "merkle-stream"])
    def test_tallies_are_handed_over_when_a_fill_raises(self, name):
        trace = make_bench_trace(500)
        # Tamper with the line of the middle access, first touched there
        # or earlier: its fill raises partway through the run.
        line_addr = trace[len(trace) // 2].addr // LINE * LINE
        outcomes = []
        for sink in (CounterSink(), RecordingSink()):
            system = build(name, sink=sink)
            byte = system.memory.dump(line_addr, 1)[0] ^ 0x80
            system.memory.load_image(line_addr, bytes([byte]))
            with pytest.raises(TamperDetected):
                system.run(trace)
            outcomes.append((system.cycles, system.cache.hits,
                             system.cache.misses, sink.summary(),
                             sink.bytes_summary()))
        assert outcomes[0] == outcomes[1]
        assert 0 < outcomes[0][3]["access"] < len(trace)

    def test_count_only_sink_must_not_ask_for_events(self):
        system = build("stream", sink=_CountOnlyBaseBulk())
        with pytest.raises(RuntimeError, match="keeps_events"):
            system.run(make_bench_trace(50))


# -- cipher-oracle differential ---------------------------------------------

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import DRBG
from repro.traces.arrays import KIND_CODES, ArrayChunk

_ORACLE_ENGINES = [None, "stream", "xom", "aegis"]
_ORACLE_CHUNKS = [1, 37, 5000]


def _random_trace(seed: int, n: int = 140, region: int = 4096):
    """A DRBG-derived trace mixing jumps, walks, kinds and sizes."""
    rng = DRBG(b"fastpath-hyp-%d" % seed)
    kinds = (AccessKind.FETCH, AccessKind.LOAD, AccessKind.STORE)
    sizes = (1, 4, 8)
    out, addr = [], 0
    for _ in range(n):
        addr = (rng.randbelow(region) if rng.random() < 0.4
                else (addr + 4) % region)
        kind = kinds[rng.randbelow(3)]
        size = sizes[rng.randbelow(3)]
        # Size-aligned, so no access leaves its line: the compilers
        # reject one that does.
        out.append(Access(kind, addr - addr % size, size))
    return out


def _as_chunk(trace) -> ArrayChunk:
    return ArrayChunk(
        np.array([KIND_CODES[a.kind] for a in trace], dtype=np.uint8),
        np.array([a.addr for a in trace], dtype=np.int64),
        np.array([a.size for a in trace], dtype=np.int64),
    )


def _assert_equivalent(ref, fast, context: str) -> None:
    ref_report, ref_sink, ref_bus, ref_memory = ref
    fast_report, fast_sink, fast_bus, fast_memory = fast
    assert fast_report == ref_report, context
    assert fast_sink.summary() == ref_sink.summary(), context
    assert fast_sink.bytes_summary() == ref_sink.bytes_summary(), context
    assert view_problems(ref_bus, fast_bus) == [], context
    assert fast_memory == ref_memory, context


class TestReferenceOracleDifferential:
    """Random traces x engines x chunk sizes: the scalar oracle over the
    algebraic ciphers against the batched executor over the kernels."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           engine=st.sampled_from(_ORACLE_ENGINES),
           chunk=st.sampled_from(_ORACLE_CHUNKS))
    def test_kernels_match_reference_ciphers(self, reference_ciphers, seed,
                                             engine, chunk):
        trace = _random_trace(seed)
        with reference_ciphers():
            ref = run_observed(engine, trace, reference=True)
        stream = TraceStream(lambda: chunked(trace, chunk), length=len(trace))
        fast = run_observed(engine, stream, reference=False)
        _assert_equivalent(ref, fast, f"engine={engine} chunk={chunk}")

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           engine=st.sampled_from(_ORACLE_ENGINES),
           chunk=st.sampled_from(_ORACLE_CHUNKS))
    def test_array_chunks_match_reference_ciphers(self, reference_ciphers,
                                                  seed, engine, chunk):
        trace = _random_trace(seed)
        with reference_ciphers():
            ref = run_observed(engine, trace, reference=True)
        chunks = [_as_chunk(trace[lo: lo + chunk])
                  for lo in range(0, len(trace), chunk)]
        stream = TraceStream(chunks, length=len(trace))
        fast = run_observed(engine, stream, reference=False)
        _assert_equivalent(ref, fast, f"array engine={engine} chunk={chunk}")


# -- lines past 256 bytes ---------------------------------------------------

from repro.core.registry import make_engine
from repro.sim import fastpath
from repro.sim.system import store_payload
from repro.traces import make_workload

_LONG_LINES = [512, 1024]
_DATA_BASE = 1 << 20


def _whole_line_stores(line_size: int, lines: int = 4):
    """4-byte store runs covering ``lines`` whole lines (merged store
    spans as long as the line), then the ``write-heavy`` workload."""
    stores = [Access(AccessKind.STORE, _DATA_BASE + k * line_size + off, 4)
              for k in range(lines) for off in range(0, line_size, 4)]
    return stores + make_workload("write-heavy", n=600)


def _long_line_system(engine: str, line_size: int) -> SecureSystem:
    system = SecureSystem(
        engine=make_engine(engine),
        cache_config=CacheConfig(size=8 * line_size, line_size=line_size,
                                 associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
    )
    system.install_image(_DATA_BASE,
                         DRBG(b"long-lines").random_bytes(64 * 1024))
    return system


class TestLongLines:
    """Merged store spans longer than 256 bytes: both compilers keep them
    whole, and the executor still matches the scalar oracle."""

    @pytest.mark.parametrize("line_size", _LONG_LINES)
    @pytest.mark.parametrize("engine", ["aegis", "xom"])
    def test_executor_matches_reference(self, engine, line_size):
        trace = _whole_line_stores(line_size)
        states = {}
        for path in ("reference", "list", "array"):
            system = _long_line_system(engine, line_size)
            if path == "reference":
                sets = replay(system, trace)
                report = system.report(system.engine.name)
                dirty = {line for s in sets for line, d in s.items() if d}
            else:
                report = system.run(trace if path == "list"
                                    else _as_chunk(trace))
                dirty = set(system.cache._dirty)
            assert dirty, path
            lines = {line: bytes(system._line_data[line]) for line in dirty}
            states[path] = (report, system.memory.dump(0, 1 << 21), lines)
        assert states["list"] == states["reference"]
        assert states["array"] == states["reference"]

    @pytest.mark.parametrize("size", [1, 256, 257, 512, 1024, 1025])
    def test_store_filler_is_the_address_ramp(self, size):
        for addr in (0, 3, 0xFF, _DATA_BASE + 3):
            assert store_payload(addr, size) \
                == bytes((addr + i) & 0xFF for i in range(size))

    def test_array_compiler_never_calls_list_compiler(self, monkeypatch):
        trace = _whole_line_stores(512)
        expected = compile_trace(trace, 512).runs
        assert max(size for run in expected for _, size in run[10]) == 512

        def refuse(*args, **kwargs):
            raise AssertionError("_compile_arrays called compile_trace")

        monkeypatch.setattr(fastpath, "compile_trace", refuse)
        assert fastpath._compile_arrays(_as_chunk(trace), 512).runs \
            == expected


# -- accesses that leave their line -------------------------------------------

from repro.sim import StreamExecutor

from .reference_model import REGION

#: A 4-byte store whose last two bytes sit in the next 32-byte line.
_CROSSING = Access(AccessKind.STORE, 0x3FE, 4)
_CROSSING_ERROR = r"0x3fe of 4 bytes crosses its 32-byte cache line"


class TestLineCrossingAccess:
    """The executor handles each access as one line's bytes, so both
    compilers reject an access that leaves its line instead of clipping
    or spilling it."""

    def test_write_back_store_keeps_no_clipped_tail(self):
        system = build(None)
        with pytest.raises(ValueError, match=_CROSSING_ERROR):
            system.run([_CROSSING])
        inside = Access(AccessKind.STORE, 0x3FC, 4)
        system = build(None)
        system.run([inside])
        system.flush()
        assert system.read_plaintext(0x3FC, 4) == store_payload(0x3FC, 4)

    @pytest.mark.parametrize("name", [None] + engine_names(),
                             ids=lambda n: n or "baseline")
    def test_write_through_rejected_for_every_engine(self, name):
        system = SecureSystem(
            engine=make_engine(name) if name else None,
            cache_config=CacheConfig(
                size=1024, line_size=32, associativity=2,
                write_policy=WritePolicy.WRITE_THROUGH,
                write_allocate=False),
            mem_config=MemoryConfig(size=1 << 21),
        )
        system.install_image(0, bytes(REGION))
        with pytest.raises(ValueError, match=_CROSSING_ERROR):
            system.run([Access(AccessKind.LOAD, 0x3E0, 4), _CROSSING])

    def test_list_and_array_compilers_reject_it(self):
        trace = [Access(AccessKind.LOAD, 0x3F0, 4), _CROSSING]
        with pytest.raises(ValueError, match=_CROSSING_ERROR):
            compile_trace(trace, LINE)
        with pytest.raises(ValueError, match=_CROSSING_ERROR):
            compile_trace(_as_chunk(trace), LINE)
        # Ending exactly on the line boundary stays inside the line.
        edge = [Access(AccessKind.STORE, 0x3FC, 4)]
        assert compile_trace(edge, LINE).runs \
            == compile_trace(_as_chunk(edge), LINE).runs

    def test_stream_executor_feed_rejects_it_and_closes(self):
        executor = StreamExecutor(build("xom"))
        executor.feed([Access(AccessKind.LOAD, 0, 4)])
        with pytest.raises(ValueError, match=_CROSSING_ERROR):
            executor.feed([Access(AccessKind.LOAD, 4, 4), _CROSSING])
        with pytest.raises(RuntimeError, match="already closed"):
            executor.feed([Access(AccessKind.LOAD, 0, 4)])

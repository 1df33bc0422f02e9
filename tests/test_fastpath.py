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

from repro.core.registry import engine_names
from repro.obs import (
    CounterSink,
    NullSink,
    RecordingSink,
    RingBufferSink,
    TeeSink,
    TraceEvent,
)
from repro.sim.cache import CacheConfig, WritePolicy
from repro.sim.fastpath import CompiledTrace, compile_trace
from repro.sim.memory import MemoryConfig
from repro.sim.system import SecureSystem
from repro.traces.trace import Access, AccessKind

from .reference_model import (
    build,
    differential,
    make_bench_trace,
    replay,
    run_observed,
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
        sink = CounterSink()
        system = _system(sink=sink, **cache_kwargs)
        transactions = []
        system.bus.attach_probe(
            lambda txn, log=transactions: log.append(
                (txn.op, txn.addr, txn.data))
        )
        report, _ = _run_one(system, trace, path)
        out.append((system, report, sink, transactions))
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
            transactions = []
            system.bus.attach_probe(
                lambda txn, log=transactions: log.append(
                    (txn.op, txn.addr, txn.data)))
            if stepped:
                for access in trace:
                    system.step(access)
                report = system.report(system.engine.name)
            else:
                report = system.run(trace)
            outcomes.append((report, transactions))
        assert outcomes[0] == outcomes[1]


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
        transactions = []
        system.bus.attach_probe(
            lambda txn: transactions.append((txn.op, txn.addr, txn.data)))
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


# -- cipher-oracle differential ---------------------------------------------

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import DRBG
from repro.traces.arrays import KIND_CODES, ArrayChunk
from repro.traces.stream import TraceStream, chunked

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
        out.append(Access(kinds[rng.randbelow(3)], addr,
                          sizes[rng.randbelow(3)]))
    return out


def _assert_equivalent(ref, fast, context: str) -> None:
    ref_report, ref_sink, ref_bus = ref
    fast_report, fast_sink, fast_bus = fast
    assert fast_report == ref_report, context
    assert fast_sink.summary() == ref_sink.summary(), context
    assert fast_sink.bytes_summary() == ref_sink.bytes_summary(), context
    assert fast_bus == ref_bus, context


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
        chunks = []
        for lo in range(0, len(trace), chunk):
            part = trace[lo: lo + chunk]
            chunks.append(ArrayChunk(
                np.array([KIND_CODES[a.kind] for a in part],
                         dtype=np.uint8),
                np.array([a.addr for a in part], dtype=np.int64),
                np.array([a.size for a in part], dtype=np.int64),
            ))
        stream = TraceStream(chunks, length=len(trace))
        fast = run_observed(engine, stream, reference=False)
        _assert_equivalent(ref, fast, f"array engine={engine} chunk={chunk}")

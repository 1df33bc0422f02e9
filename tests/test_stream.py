"""Chunk-streamed trace execution: bounded-memory streaming must be
byte-identical to the materialized path at any chunk size.

The carried-state invariants under test (see DESIGN.md):

* LRU order, dirty bits, deferred miss fills and all counters survive
  chunk boundaries — a boundary is invisible to the simulated hardware;
* coalesced runs split at boundaries are per-access equivalent;
* long-horizon generators are deterministic for a given seed, so a
  10^8-access stream is replayable without being storable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_stream
from repro.core.registry import make_engine
from repro.crypto import DRBG
from repro.sim import CacheConfig, MemoryConfig, SecureSystem, StreamExecutor
from repro.traces import (
    DEFAULT_CHUNK_SIZE,
    LONG_HORIZON_NAMES,
    STREAM_WORKLOAD_NAMES,
    WORKLOAD_NAMES,
    TraceStream,
    chunked,
    iter_dma_bursts,
    iter_multi_tenant,
    iter_phased_program,
    iter_workload,
    make_workload,
    stream_workload,
)
from repro.traces.workloads import array_stream_workload

IMAGE = 32 * 1024


def small_system(engine_name=None):
    system = SecureSystem(
        engine=make_engine(engine_name) if engine_name else None,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 20, latency=20),
    )
    system.install_image(0, bytes(IMAGE))
    return system


def bounded_trace(name, n, seed=2005):
    return [type(a)(a.kind, a.addr % IMAGE, a.size)
            for a in iter_workload(name, n=n, seed=seed)]


# -- the tentpole property: chunked == whole, any chunk size ----------------


class TestChunkedEqualsWhole:
    @settings(max_examples=25, deadline=None)
    @given(
        engine=st.sampled_from([None, "stream", "xom"]),
        name=st.sampled_from(["mixed", "branchy", "dma-burst"]),
        chunk=st.one_of(
            st.just(1),                       # boundary between every access
            st.integers(min_value=2, max_value=400),
            st.integers(min_value=401, max_value=5000),  # > len(trace)
        ),
    )
    def test_fast_path_property(self, engine, name, chunk):
        trace = bounded_trace(name, 400)
        whole = small_system(engine).run(trace, label="whole")
        stream = TraceStream(lambda: chunked(trace, chunk), length=len(trace))
        streamed = small_system(engine).run(stream, label="whole")
        assert streamed.to_metrics() == whole.to_metrics()

    @pytest.mark.parametrize("chunk", [1, 37, 5000])
    def test_run_stream_document_identity(self, chunk):
        whole = run_stream(engine="xom", workload="mixed", accesses=3000,
                           chunk_size=0)
        streamed = run_stream(engine="xom", workload="mixed", accesses=3000,
                              chunk_size=chunk)
        assert streamed["metrics"] == whole["metrics"]
        assert streamed["chunk_size"] == chunk

    @pytest.mark.parametrize("engine", ["xom", "ds5240", "gi"],
                             ids=["aes", "des", "3des"])
    def test_run_stream_matches_reference_ciphers(self, reference_ciphers,
                                                  engine):
        """One AES, one DES and one 3DES registry engine: the document is
        the same whether the kernels or the algebraic ciphers run."""
        kwargs = dict(engine=engine, workload="dma-burst", accesses=3000,
                      chunk_size=512, image_size=4096, functional=True)
        with reference_ciphers():
            reference = run_stream(**kwargs)
        assert run_stream(**kwargs) == reference


# -- lazy generators match their materialized ancestors ---------------------


class TestIterWorkloads:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_iter_matches_make(self, name):
        assert list(iter_workload(name, n=1500)) == make_workload(name,
                                                                  n=1500)

    @pytest.mark.parametrize("name", LONG_HORIZON_NAMES)
    def test_long_horizon_deterministic(self, name):
        a = list(iter_workload(name, n=2000, seed=7))
        b = list(iter_workload(name, n=2000, seed=7))
        assert a == b
        assert len(a) == 2000
        assert list(iter_workload(name, n=500, seed=8)) != a[:500]

    def test_long_horizon_registered(self):
        for name in LONG_HORIZON_NAMES:
            assert name in STREAM_WORKLOAD_NAMES

    def test_phased_changes_phase(self):
        # With a short phase length the generator must mix access kinds
        # and address regions across phases.
        rng = DRBG(99)
        trace = list(iter_phased_program(4000, rng, phase_len=500))
        assert len(trace) == 4000
        assert len({a.kind for a in trace}) > 1

    def test_multi_tenant_rebases(self):
        rng = DRBG(3)
        trace = list(iter_multi_tenant(1000, rng, tenants=4, stride=1 << 21))
        regions = {a.addr >> 21 for a in trace}
        assert len(regions) == 4

    def test_dma_bursts_shape(self):
        rng = DRBG(5)
        trace = list(iter_dma_bursts(1000, rng, burst=256))
        assert len(trace) == 1000
        assert all(a.size == 4 for a in trace)

    @pytest.mark.parametrize("chunk", [1, 100, 5000])
    def test_dma_burst_array_twin_matches(self, chunk):
        """The array generator flattens to the scalar generator's
        accesses, address fold included."""
        twin = array_stream_workload("dma-burst", n=3000, seed=11,
                                     chunk_size=chunk, addr_mod=IMAGE)
        scalar = [type(a)(a.kind, a.addr % IMAGE, a.size)
                  for a in iter_workload("dma-burst", n=3000, seed=11)]
        assert list(twin) == scalar

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            list(iter_workload("nope", n=10))
        with pytest.raises(KeyError):
            stream_workload("nope", n=10)


# -- TraceStream semantics --------------------------------------------------


class TestTraceStream:
    def test_replayable_from_factory(self):
        trace = bounded_trace("mixed", 100)
        stream = TraceStream(lambda: chunked(trace, 30))
        assert stream.replayable
        first = [a for c in stream.chunks() for a in c]
        second = [a for c in stream.chunks() for a in c]
        assert first == second == trace

    def test_one_shot_consumed(self):
        trace = bounded_trace("mixed", 50)
        stream = TraceStream(iter([trace]))
        assert not stream.replayable
        assert [a for c in stream.chunks() for a in c] == trace
        with pytest.raises(RuntimeError, match="already consumed"):
            list(stream.chunks())

    def test_from_accesses(self):
        trace = bounded_trace("mixed", 100)
        stream = TraceStream.from_accesses(trace, chunk_size=7)
        assert stream.replayable
        assert list(stream) == trace

    @pytest.mark.parametrize("compiled", [False, True])
    def test_overhead_rejects_one_shot_stream_up_front(self, compiled):
        from repro.sim import overhead
        from repro.sim.fastpath import compile_trace

        stream = TraceStream(iter([bounded_trace("mixed", 50)]))
        trace = compile_trace(stream, 32) if compiled else stream
        with pytest.raises(TypeError, match=r"overhead\(\) replays"):
            overhead(trace, make_engine("xom", functional=False))
        # Rejected before the secured run: the stream is still unread.
        assert len(list(stream)) == 50

    @pytest.mark.parametrize("compiled", [False, True])
    def test_measure_overhead_rejects_one_shot_stream_up_front(
            self, compiled):
        from repro.analysis import measure_overhead
        from repro.sim.fastpath import compile_trace

        built = []

        def factory():
            built.append(True)
            return make_engine("xom", functional=False)

        stream = TraceStream(iter([bounded_trace("mixed", 50)]))
        trace = compile_trace(stream, 32) if compiled else stream
        with pytest.raises(TypeError,
                           match=r"measure_overhead\(\) replays"):
            measure_overhead(factory, trace)
        assert not built
        assert len(list(stream)) == 50

    def test_measure_overhead_replays_a_replayable_stream(self):
        from repro.analysis import measure_overhead

        trace = bounded_trace("mixed", 300)
        factory = lambda: make_engine("xom", functional=False)  # noqa: E731
        streamed = measure_overhead(
            factory, TraceStream.from_accesses(trace, chunk_size=64))
        whole = measure_overhead(factory, trace)
        assert streamed.secured == whole.secured
        assert streamed.baseline == whole.baseline

    def test_chunked_validates(self):
        with pytest.raises(ValueError):
            list(chunked([], 0))

    def test_stream_workload_replayable_with_length(self):
        stream = stream_workload("mixed", n=500)
        assert stream.replayable
        assert stream.length == 500
        assert len(list(stream)) == 500

    def test_default_chunk_size(self):
        assert DEFAULT_CHUNK_SIZE == 65536


# -- the push-driven executor (the serve layer's bridge) --------------------


class TestStreamExecutor:
    def test_matches_whole_run(self):
        trace = bounded_trace("mixed", 2000)
        whole = small_system("xom").run(trace, label="push")

        system = small_system("xom")
        executor = StreamExecutor(system)
        for i in range(0, len(trace), 333):
            executor.feed(trace[i:i + 333])
        executor.close()
        assert executor.fed == 2000
        assert system.report("push").to_metrics() == whole.to_metrics()

    def test_error_propagates(self):
        system = small_system("xom")
        executor = StreamExecutor(system)
        bad = [object()] * 4  # not Access records: the engine loop raises
        with pytest.raises(Exception):
            executor.feed(bad)
            executor.close()
        assert executor.failed or True  # close() re-raised already

    def test_feed_after_close_rejected(self):
        executor = StreamExecutor(small_system())
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.feed(bounded_trace("mixed", 10))

    def test_abort_never_blocks(self):
        executor = StreamExecutor(small_system("xom"), maxsize=1)
        executor.feed(bounded_trace("mixed", 100))
        executor.abort()  # must return without waiting for the worker


# -- run_stream validation --------------------------------------------------


class TestRunStreamValidation:
    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            run_stream(workload="nope", accesses=10)

    def test_degenerate_params(self):
        with pytest.raises(ValueError):
            run_stream(accesses=0)
        with pytest.raises(ValueError):
            run_stream(accesses=10, chunk_size=-1)

    def test_canonical_document_shape(self):
        doc = run_stream(engine=None, workload="sequential", accesses=64,
                         chunk_size=16)
        assert doc["engine"] == "baseline"
        assert doc["workload"] == "sequential"
        assert doc["metrics"]["accesses"] == 64

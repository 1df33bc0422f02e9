"""Chunk-streamed trace execution: bounded-memory streaming must be
byte-identical to the materialized path at any chunk size.

The carried-state invariants under test (see DESIGN.md):

* LRU order, dirty bits, deferred miss fills and all counters survive
  chunk boundaries — a boundary is invisible to the simulated hardware;
* coalesced runs split at boundaries are per-access equivalent;
* long-horizon generators are deterministic for a given seed, so a
  10^8-access stream is replayable without being storable.
"""

import hashlib
import threading
from functools import lru_cache
from itertools import chain

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
    data_stream_chunks,
    dma_burst_chunks,
    iter_multi_tenant,
    iter_phased_program,
    iter_workload,
    make_workload,
    stream_workload,
)
from repro.traces.workloads import array_stream_workload

from .reference_traces import iter_data_accesses, iter_dma_bursts

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
        chunks = list(dma_burst_chunks(1000, rng, 333, burst=256))
        assert [len(c) for c in chunks] == [333, 333, 333, 1]
        trace = list(chain.from_iterable(chunks))
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


# -- the array generator against its scalar oracle ---------------------------

_DMA_SEEDS = (2005, 1, 7)
_DMA_LENGTHS = (1, 7, 4096, 10 ** 5)
_DMA_CHUNKS = (1, 333, DEFAULT_CHUNK_SIZE)


@lru_cache(maxsize=None)
def _dma_oracle(seed, n):
    """The oracle's (kind, addr, size) sequence for ``dma-burst``."""
    rng = DRBG(seed).fork("dma-burst")
    return [(a.kind, a.addr, a.size) for a in iter_dma_bursts(n, rng)]


def _triples(accesses):
    return [(a.kind, a.addr, a.size) for a in accesses]


class TestDmaBurstOracle:
    """``dma-burst`` is generated only as array chunks; every entry point
    flattens to the scalar oracle's accesses, at any chunk size."""

    @pytest.mark.parametrize("n", _DMA_LENGTHS)
    @pytest.mark.parametrize("seed", _DMA_SEEDS)
    def test_iter_workload(self, seed, n):
        trace = _triples(iter_workload("dma-burst", n=n, seed=seed))
        assert trace == _dma_oracle(seed, n)

    @pytest.mark.parametrize("chunk", _DMA_CHUNKS)
    @pytest.mark.parametrize("n", _DMA_LENGTHS)
    @pytest.mark.parametrize("seed", _DMA_SEEDS)
    def test_stream_workload(self, seed, n, chunk):
        stream = stream_workload("dma-burst", n=n, seed=seed,
                                 chunk_size=chunk)
        trace = _triples(chain.from_iterable(stream.chunks()))
        assert trace == _dma_oracle(seed, n)

    @pytest.mark.parametrize("chunk", _DMA_CHUNKS)
    @pytest.mark.parametrize("n", _DMA_LENGTHS)
    @pytest.mark.parametrize("seed", _DMA_SEEDS)
    def test_array_stream_workload(self, seed, n, chunk):
        stream = array_stream_workload("dma-burst", n=n, seed=seed,
                                       chunk_size=chunk)
        trace = _triples(chain.from_iterable(stream.chunks()))
        assert trace == _dma_oracle(seed, n)


#: The named data-stream workloads, spelled out independently of
#: ``repro.traces.workloads`` so the oracle also checks that table.
_DATA_STREAMS = {
    "data-local": dict(working_set=128 * 1024, write_fraction=0.25,
                       locality=0.9),
    "data-random": dict(working_set=1 << 20, write_fraction=0.2,
                        locality=0.0),
    "write-heavy": dict(working_set=256 * 1024, write_fraction=0.6,
                        locality=0.7),
}

#: sha256 of the (kind, addr, size) lines of the workloads that consume a
#: data stream, recorded when the data stream was still generated one
#: ``Access`` at a time.
_CONSUMER_DIGESTS = {
    ("mixed", 2005):
        "c391388a2e2569a905bcc7077ea3c0b0bea163494bddfaab1e0a06f73c3d825e",
    ("mixed", 1):
        "ec64149a87d3e6b8f99bd769de74ad510ade4afbc839693569c7b8bcb7607513",
    ("mixed", 7):
        "2de2a18a0b016ee3d46f0c6e46a994aa9b38ff6728f16b36bee9f357e34be719",
    ("phased", 2005):
        "5598abe1c19e93775dcb20a4871ae1c9d48d8b7d96d6033cb98b7b5731ae1791",
    ("phased", 1):
        "d4c9afda47090b1c89589e91b1dea10aeeeb68daa3fa7383f062ea1728cc4ac3",
    ("phased", 7):
        "775c30f70400e007c76f7e969d3aa0d0db6018547456a2d712d938278b96e28d",
    ("multi-tenant", 2005):
        "426941ef621bf2f979be19039167aec6e8bfdb5a28286d54291677f715b9fa1d",
    ("multi-tenant", 1):
        "4bff968e5d27ce681ef2a24198e383c528fc2806f10d7bb5fd022959c0b7a45a",
    ("multi-tenant", 7):
        "c24e185e194c5b36e82e927fee2b5e08d8a95ae5f70b98f22daef8d2539c12b2",
}


@lru_cache(maxsize=None)
def _data_oracle(name, seed, n):
    """The oracle's (kind, addr, size) sequence for a data-stream
    workload, and the next 16 bytes of its drained DRBG."""
    rng = DRBG(seed).fork(name)
    trace = _triples(iter_data_accesses(n, rng, **_DATA_STREAMS[name]))
    return trace, rng.random_bytes(16)


def _consumer_digest(name, seed):
    if name == "phased":
        accesses = iter_phased_program(20000, DRBG(seed), phase_len=1000)
    else:
        accesses = iter_workload(name, n=20000 if name == "mixed" else 5000,
                                 seed=seed)
    digest = hashlib.sha256()
    for a in accesses:
        digest.update(f"{a.kind.name} {a.addr} {a.size}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(_DATA_STREAMS))
class TestDataStreamOracle:
    """``data-local``, ``data-random`` and ``write-heavy`` are generated
    only as array chunks over a bulk DRBG read; every entry point
    flattens to the per-draw oracle's accesses, at any chunk size."""

    @pytest.mark.parametrize("n", _DMA_LENGTHS)
    @pytest.mark.parametrize("seed", _DMA_SEEDS)
    def test_iter_workload(self, name, seed, n):
        trace = _triples(iter_workload(name, n=n, seed=seed))
        assert trace == _data_oracle(name, seed, n)[0]

    @pytest.mark.parametrize("chunk", _DMA_CHUNKS)
    @pytest.mark.parametrize("n", _DMA_LENGTHS)
    @pytest.mark.parametrize("seed", _DMA_SEEDS)
    def test_stream_workload(self, name, seed, n, chunk):
        stream = stream_workload(name, n=n, seed=seed, chunk_size=chunk)
        trace = _triples(chain.from_iterable(stream.chunks()))
        assert trace == _data_oracle(name, seed, n)[0]

    @pytest.mark.parametrize("chunk", _DMA_CHUNKS)
    @pytest.mark.parametrize("n", _DMA_LENGTHS)
    @pytest.mark.parametrize("seed", _DMA_SEEDS)
    def test_array_stream_workload(self, name, seed, n, chunk):
        stream = array_stream_workload(name, n=n, seed=seed,
                                       chunk_size=chunk, addr_mod=IMAGE)
        chunks = list(stream.chunks())
        assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= chunk
        folded = [(kind, addr % IMAGE, size)
                  for kind, addr, size in _data_oracle(name, seed, n)[0]]
        assert _triples(chain.from_iterable(chunks)) == folded

    @pytest.mark.parametrize("n", _DMA_LENGTHS)
    @pytest.mark.parametrize("seed", _DMA_SEEDS)
    def test_drained_drbg_matches(self, name, seed, n):
        """A drained generator has consumed exactly the oracle's bytes."""
        rng = DRBG(seed).fork(name)
        for _ in data_stream_chunks(n, rng, 333, base=1 << 20, size=4,
                                    **_DATA_STREAMS[name]):
            pass
        assert rng.random_bytes(16) == _data_oracle(name, seed, n)[1]


@pytest.mark.parametrize("seed", _DMA_SEEDS)
@pytest.mark.parametrize("name", ["mixed", "phased", "multi-tenant"])
def test_data_stream_consumers_unchanged(name, seed):
    """Workloads built over ``iter_data_stream`` give their recorded
    accesses."""
    assert _consumer_digest(name, seed) == _CONSUMER_DIGESTS[(name, seed)]


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

    @pytest.mark.parametrize("compiled", [False, True])
    def test_overhead_rejects_one_shot_stream_up_front(self, compiled):
        """The grid entry point compiles the column first, then replays it
        through measure_overhead: still rejected before any run."""
        from repro.analysis import overhead_grid
        from repro.sim.fastpath import compile_trace

        built = []

        def factory():
            built.append(True)
            return make_engine("xom", functional=False)

        stream = TraceStream(iter([bounded_trace("mixed", 50)]))
        trace = compile_trace(stream, 32) if compiled else stream
        with pytest.raises(TypeError,
                           match=r"price_engines\(\) replays"):
            overhead_grid({"xom": factory}, {"mixed": trace})
        # Rejected before the secured run: the stream is still unread.
        assert not built
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
                           match=r"price_engines\(\) replays"):
            measure_overhead(factory, trace)
        assert not built
        assert len(list(stream)) == 50

    def test_measure_overhead_replays_a_replayable_stream(self):
        from repro.analysis import measure_overhead

        trace = bounded_trace("mixed", 300)
        factory = lambda: make_engine("xom", functional=False)  # noqa: E731
        streamed = measure_overhead(
            factory, TraceStream(lambda: chunked(trace, 64)))
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
    @pytest.mark.parametrize("chunk", [1, 7, 333, None])
    @pytest.mark.parametrize("engine", ["xom", "aegis", "stream"])
    def test_matches_whole_run(self, engine, chunk):
        n = 2000
        trace = bounded_trace("mixed", n)
        chunk = chunk or n

        def system():
            built = SecureSystem(
                engine=make_engine(engine),
                cache_config=CacheConfig(size=1024, line_size=32,
                                         associativity=2),
                mem_config=MemoryConfig(size=1 << 20, latency=20),
            )
            built.install_image(0, DRBG(5).random_bytes(IMAGE))
            return built

        reference = system()
        whole = reference.run(trace, label="push")
        pushed = system()
        executor = StreamExecutor(pushed)
        for i in range(0, n, chunk):
            executor.feed(trace[i:i + chunk])
        executor.close()
        assert executor.fed == n
        assert pushed.report("push").to_metrics() == whole.to_metrics()
        assert pushed.memory.dump(0, IMAGE) == reference.memory.dump(0, IMAGE)

    def test_error_propagates(self):
        system = small_system("xom")
        executor = StreamExecutor(system)
        executor.feed(bounded_trace("mixed", 10))
        bad = [object()] * 4  # not Access records: compiling them raises
        with pytest.raises(AttributeError):
            executor.feed(bad)
        with pytest.raises(RuntimeError, match="closed"):
            executor.feed(bounded_trace("mixed", 10))
        assert executor.fed == 10
        assert system.report("x").accesses == 10

    def test_feed_after_close_rejected(self):
        executor = StreamExecutor(small_system())
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.feed(bounded_trace("mixed", 10))

    def test_lifecycle_starts_no_thread(self):
        before = threading.active_count()
        executor = StreamExecutor(small_system("xom"))
        executor.feed(bounded_trace("mixed", 100))
        assert threading.active_count() == before
        executor.close()
        assert threading.active_count() == before


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

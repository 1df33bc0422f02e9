"""The named workload suite used across experiments.

Five synthetic points spanning the axes the survey cares about, code
*images* whose statistics resemble embedded binaries (for the compression
and ECB experiments), and traces derived from *real* MCU kernel executions
(sort, memcpy, memset, search, checksum) — instruction and data streams of
actual programs rather than statistical mimics.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional

from ..crypto.drbg import DRBG
from . import generator
from .stream import DEFAULT_CHUNK_SIZE, TraceStream, chunked
from .trace import Access, AccessKind, Trace

__all__ = ["standard_suite", "make_workload", "iter_workload",
           "stream_workload", "array_stream_workload",
           "synthetic_code_image",
           "WORKLOAD_NAMES", "LONG_HORIZON_NAMES", "STREAM_WORKLOAD_NAMES",
           "ARRAY_STREAM_NAMES",
           "MCU_KERNELS", "events_to_trace", "trace_to_events",
           "mcu_workload"]

WORKLOAD_NAMES = (
    "sequential",
    "branchy",
    "data-local",
    "data-random",
    "write-heavy",
    "mixed",
)

#: Long-horizon workloads: their defining behaviour (phase changes, tenant
#: switches, burst trains) only shows at trace lengths that must stream.
LONG_HORIZON_NAMES = (
    "phased",
    "multi-tenant",
    "dma-burst",
)

#: Everything :func:`iter_workload`/:func:`stream_workload` accept.
STREAM_WORKLOAD_NAMES = WORKLOAD_NAMES + LONG_HORIZON_NAMES

#: Workloads generated as array chunks (:func:`array_stream_workload`):
#: their generators parse the DRBG byte stream in bulk, so no ``Access``
#: is built between the DRBG and the array executor.  The other names
#: still generate one ``Access`` at a time.
ARRAY_STREAM_NAMES = ("data-local", "data-random", "write-heavy",
                      "dma-burst")

#: Parameters of the named data-stream workloads
#: (:func:`~repro.traces.generator.data_stream_chunks`).
_DATA_STREAMS = {
    "data-local": dict(base=1 << 20, working_set=128 * 1024,
                       write_fraction=0.25, size=4, locality=0.9),
    "data-random": dict(base=1 << 20, working_set=1 << 20,
                        write_fraction=0.2, size=4, locality=0.0),
    "write-heavy": dict(base=1 << 20, working_set=256 * 1024,
                        write_fraction=0.6, size=4, locality=0.7),
}


def _array_chunks(name: str, n: int, rng: DRBG, chunk_size: int,
                  addr_mod: Optional[int] = None):
    """The array chunks of one of :data:`ARRAY_STREAM_NAMES`."""
    if name == "dma-burst":
        return generator.dma_burst_chunks(n, rng, chunk_size,
                                          addr_mod=addr_mod)
    return generator.data_stream_chunks(n, rng, chunk_size,
                                        addr_mod=addr_mod,
                                        **_DATA_STREAMS[name])


def iter_workload(name: str, n: int = 20000, seed: int = 2005
                  ) -> Iterator[Access]:
    """Yield one named workload's accesses lazily and deterministically.

    ``make_workload(name, n, seed) == list(iter_workload(name, n, seed))``
    for every name in ``WORKLOAD_NAMES``.  The long-horizon names
    (``LONG_HORIZON_NAMES``) are additionally available here; the
    :data:`ARRAY_STREAM_NAMES` flatten their array chunks.
    """
    rng = DRBG(seed).fork(name)
    if name in ARRAY_STREAM_NAMES:
        return chain.from_iterable(
            _array_chunks(name, n, rng, DEFAULT_CHUNK_SIZE))
    if name == "sequential":
        return generator.iter_sequential_code(n, code_size=256 * 1024)
    if name == "branchy":
        return generator.iter_branchy_code(
            n, rng, p_taken=0.25, code_size=256 * 1024
        )
    if name == "mixed":
        return generator.iter_mixed_workload(n, rng)
    if name == "phased":
        return generator.iter_phased_program(n, rng)
    if name == "multi-tenant":
        return generator.iter_multi_tenant(n, rng)
    raise KeyError(
        f"unknown workload {name!r}; choose from {STREAM_WORKLOAD_NAMES}"
    )


def make_workload(name: str, n: int = 20000, seed: int = 2005) -> Trace:
    """Build one named workload deterministically (materialized)."""
    return list(iter_workload(name, n=n, seed=seed))


def stream_workload(name: str, n: int = 20000, seed: int = 2005,
                    chunk_size: int = DEFAULT_CHUNK_SIZE) -> TraceStream:
    """A replayable chunk stream of one named workload.

    Each pass re-derives the DRBG from ``seed``, so the same stream can
    drive both legs of an overhead comparison; memory never holds more
    than ``chunk_size`` accesses.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if name not in STREAM_WORKLOAD_NAMES:
        raise KeyError(
            f"unknown workload {name!r}; choose from {STREAM_WORKLOAD_NAMES}"
        )
    return TraceStream(
        lambda: chunked(iter_workload(name, n=n, seed=seed), chunk_size),
        length=n,
    )


def array_stream_workload(name: str, n: int = 20000, seed: int = 2005,
                          chunk_size: int = DEFAULT_CHUNK_SIZE,
                          addr_mod: int = None) -> TraceStream:
    """An array-chunk replayable stream of one named workload.

    Flattens to the exact access sequence of
    ``stream_workload(name, n, seed)`` — each pass re-derives the DRBG
    from ``seed`` — but delivers :class:`~repro.traces.arrays.ArrayChunk`
    slabs that the array executor reads without constructing ``Access``
    records.
    ``addr_mod`` folds addresses by ``addr % addr_mod`` inside the
    arrays (the :func:`repro.api.run_stream` image wrap).

    Only :data:`ARRAY_STREAM_NAMES` are generated as arrays; callers use
    :func:`stream_workload` for every other name.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if name not in ARRAY_STREAM_NAMES:
        raise KeyError(
            f"workload {name!r} has no array generator; choose from "
            f"{ARRAY_STREAM_NAMES} (or use stream_workload)"
        )
    return TraceStream(
        lambda: _array_chunks(name, n, DRBG(seed).fork(name), chunk_size,
                              addr_mod),
        length=n,
    )


def standard_suite(n: int = 20000, seed: int = 2005) -> Dict[str, Trace]:
    """All named workloads."""
    return {name: make_workload(name, n=n, seed=seed) for name in WORKLOAD_NAMES}


#: Kernels available through :func:`mcu_workload`.
MCU_KERNELS = ("checksum", "fibonacci", "sort", "memset", "memcpy", "search")


#: obs "access" event detail -> simulator access kind.
_ACCESS_DETAILS = {
    "fetch": AccessKind.FETCH,
    "load": AccessKind.LOAD,
    "store": AccessKind.STORE,
}


def events_to_trace(events: Iterable) -> Trace:
    """Convert observed events into a simulator access trace.

    Two event shapes are accepted, and both keep access size and kind
    faithful:

    * MCU :class:`repro.isa.mcu.StepEvent` (has ``fetched``): the MCU's
      bus is 8 bits wide, so every fetch/load/store is one byte.
    * obs :class:`repro.obs.TraceEvent` (has ``kind``): ``"access"``
      events map ``detail`` (fetch/load/store) to the access kind and
      carry ``size`` through unchanged; other kinds from the closed
      taxonomy (hits, bus traffic, ...) describe consequences of
      accesses, not accesses, and are skipped.

    Anything else — an unknown event kind, an access with an unknown
    detail or a non-positive size, an object of neither shape — raises
    ``ValueError`` naming the offending event.
    """
    # Imported here to keep repro.traces importable without repro.obs.
    from ..obs.events import EVENT_KINDS

    trace: List[Access] = []
    for ev in events:
        if hasattr(ev, "fetched"):       # MCU StepEvent
            for addr in ev.fetched:
                trace.append(Access(AccessKind.FETCH, addr, 1))
            if ev.data_read is not None:
                trace.append(Access(AccessKind.LOAD, ev.data_read, 1))
            if ev.data_write is not None:
                trace.append(Access(AccessKind.STORE, ev.data_write, 1))
        elif hasattr(ev, "kind"):        # obs TraceEvent
            if ev.kind == "access":
                try:
                    kind = _ACCESS_DETAILS[ev.detail]
                except KeyError:
                    raise ValueError(
                        f"access event with unknown detail {ev.detail!r}; "
                        f"expected one of {sorted(_ACCESS_DETAILS)}"
                    ) from None
                if ev.size <= 0:
                    raise ValueError(
                        f"access event at addr {ev.addr:#x} has "
                        f"non-positive size {ev.size}"
                    )
                trace.append(Access(kind, ev.addr, ev.size))
            elif ev.kind not in EVENT_KINDS:
                raise ValueError(
                    f"unknown event kind {ev.kind!r}; expected one of the "
                    f"{len(EVENT_KINDS)} kinds in repro.obs.EVENT_KINDS"
                )
        else:
            raise ValueError(
                f"cannot convert event {ev!r}: neither an MCU StepEvent "
                "nor an obs TraceEvent"
            )
    return trace


def trace_to_events(trace: Iterable[Access]) -> List:
    """The inverse of :func:`events_to_trace` for obs events.

    Emits one ``"access"`` :class:`repro.obs.TraceEvent` per access,
    preserving kind (as ``detail``), address and size, so
    ``events_to_trace(trace_to_events(t)) == t`` for any trace.
    """
    from ..obs.events import TraceEvent

    return [
        TraceEvent(kind="access", addr=a.addr, size=a.size,
                   detail=a.kind.name.lower())
        for a in trace
    ]


def mcu_workload(kernel: str, repeat: int = 3, seed: int = 2005) -> Trace:
    """A trace from actually executing an MCU kernel, ``repeat`` times over.

    Unlike the synthetic generators, these carry the true fetch/load/store
    interleavings of running code — loops revisit their own instructions,
    data accesses cluster around real tables.
    """
    # Imported here: repro.isa imports repro.crypto, not repro.traces, so
    # the only cycle risk is at module import time.
    from ..isa.programs import (
        bubble_sort_program,
        checksum_program,
        fibonacci_program,
        mcu_trace,
        memcpy_program,
        memset_program,
        string_search_program,
    )

    sources = {
        "checksum": lambda: checksum_program(table_len=32),
        "fibonacci": lambda: fibonacci_program(count=40),
        "sort": lambda: bubble_sort_program(table_len=12, seed=seed),
        "memset": lambda: memset_program(length=48),
        "memcpy": lambda: memcpy_program(length=32, seed=seed),
        "search": lambda: string_search_program(table_len=48, seed=seed),
    }
    if kernel not in sources:
        raise KeyError(f"unknown kernel {kernel!r}; choose from {MCU_KERNELS}")
    events = mcu_trace(sources[kernel](), memory_size=2048, max_steps=50000)
    single = events_to_trace(events)
    return single * max(1, repeat)


def synthetic_code_image(
    size: int = 64 * 1024,
    seed: int = 2005,
    opcode_skew: float = 0.8,
    idiom_fraction: float = 0.3,
) -> bytes:
    """A code-like byte image with realistic redundancy.

    Real instruction streams have a heavily skewed opcode histogram and many
    repeated multi-word idioms (prologues, load-immediate pairs).  The image
    is built from a small pool of 4-byte "instructions" drawn with a skewed
    distribution, with whole idiom sequences (16 bytes) pasted in at
    ``idiom_fraction`` — enough structure for CodePack to reach its
    published compression range and for ECB to leak repeats.
    """
    if size % 4 != 0:
        raise ValueError(f"size must be a multiple of 4, got {size}")
    rng = DRBG(seed).fork("code-image")
    # Instruction pool: a few very common words, a tail of rarer ones.
    common = [bytes([rng.randbits(8) for _ in range(4)]) for _ in range(16)]
    rare = [bytes([rng.randbits(8) for _ in range(4)]) for _ in range(240)]
    idioms = [
        b"".join(rng.choice(common) for _ in range(4)) for _ in range(8)
    ]
    out = bytearray()
    while len(out) < size:
        roll = rng.random()
        if roll < idiom_fraction:
            out += rng.choice(idioms)
        elif roll < idiom_fraction + (1 - idiom_fraction) * opcode_skew:
            out += rng.choice(common)
        else:
            out += rng.choice(rare)
    return bytes(out[:size])

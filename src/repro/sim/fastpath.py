"""Batched trace execution: the simulator's one executor.

Walking each :class:`Access` through cache -> engine -> ``Bus`` ->
``MainMemory`` one at a time costs a per-access dispatch — an LRU
update, an event construction, an engine method call — that would
dominate the quick suite, although the survey's interesting work all
happens on the *miss* stream.  This module executes a trace in batches:

* :func:`compile_trace` precomputes line numbers once and coalesces
  consecutive same-line accesses into runs (with per-run kind counts,
  byte totals and store positions), so a compiled trace can be replayed
  against many systems;
* :func:`execute` resolves the hit stream in bulk, working in place on
  the cache's own per-set line lists and dirty set, and defers
  load/fetch miss fills into groups that reach the engine through the
  bulk :meth:`~repro.core.engine.BusEncryptionEngine.fill_lines`
  interface — one batched kernel call per group for the ported engines.

:meth:`~repro.sim.system.SecureSystem.run` and
:meth:`~repro.sim.system.SecureSystem.step` (a one-access run) both go
through :func:`execute`.  Equivalence contract against the scalar
one-access-at-a-time model in ``tests/reference_model.py`` (pinned by
``tests/test_fastpath.py``):

* the :class:`~repro.sim.system.SimReport` is byte-identical — same
  cycles, counters, stats — for every engine;
* the bus transaction stream (op, addr, data) is identical in content
  *and order*: deferred fills are flushed before any engine write so the
  engine-call order, and therefore every engine's internal state
  evolution, matches the scalar schedule exactly;
* with a sink attached, aggregate totals (:class:`repro.obs.CounterSink`
  counts and byte sums) are identical.  Bulk-resolved hit runs report
  through :meth:`repro.obs.EventSink.emit_bulk`, so batches of `access`
  and `hit` events may arrive grouped by kind rather than interleaved,
  and deferred fills carry later cycle stamps than their scalar twins —
  event *interleaving and stamps* are the one relaxation.

With observability disabled the hot loop constructs zero
:class:`~repro.obs.TraceEvent` objects.

Materialized traces compile through :func:`compile_trace`'s list loop and
:class:`~repro.traces.arrays.ArrayChunk` traces through the vectorized
:func:`_compile_arrays`; the input type alone picks the compiler, and both
emit identical runs.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple, Union

import numpy as np

from ..core.engine import Placement
from ..obs import TraceEvent
from ..traces.arrays import KIND_BY_CODE, KIND_CODES, ArrayChunk
from ..traces.stream import TraceStream
from ..traces.trace import Access, AccessKind, Trace
from .cache import WritePolicy
from .system import store_payload

__all__ = ["CompiledTrace", "CompiledTraceStream", "compile_trace",
           "execute", "FLUSH_THRESHOLD"]

#: Deferred fills are handed to ``fill_lines`` in groups of at most this
#: many lines (they also flush early whenever ordering requires it).
FLUSH_THRESHOLD = 16

#: One coalesced same-line run: ``(start, count, line, n_fetch, n_load,
#: n_store, byte_total, head_kind, head_addr, head_size, store_pairs)``.
#: The head access's fields ride in the tuple (the hot loop never
#: indexes back into the access sequence for them) and ``store_pairs``
#: holds the stores' ``(addr, size)`` spans in order, head included —
#: the two choices that let list-compiled and array-compiled runs share
#: one executor loop.  Contiguous stores (each starting where the
#: previous ended) merge into one span: the deterministic store filler
#: is a pure function of the address, so one 16-byte patch is
#: byte-identical to four adjacent 4-byte patches.
_Run = Tuple[int, int, int, int, int, int, int, AccessKind, int, int,
             Tuple[Tuple[int, int], ...]]


class CompiledTrace:
    """A trace preprocessed for batched execution against one line size.

    Iterable and sized like the access list it wraps, so it can stand in
    for a plain trace anywhere; :func:`execute` recognizes it and skips
    recompilation when the line size matches.
    """

    __slots__ = ("accesses", "line_size", "runs")

    def __init__(self, accesses: Union[List[Access], ArrayChunk],
                 line_size: int,
                 runs: List[_Run]):
        self.accesses = accesses
        self.line_size = line_size
        self.runs = runs

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.accesses)


class CompiledTraceStream:
    """The streaming counterpart of :class:`CompiledTrace`.

    Wraps a :class:`~repro.traces.stream.TraceStream` and compiles each
    chunk on demand, so only one chunk's accesses and runs exist at a
    time.  Runs never span chunk boundaries — a coalesced run split in
    two executes as two shorter runs, which :func:`execute` resolves to
    the same per-access arithmetic (see DESIGN.md, "Streaming traces").

    Iterable like a trace (flattens to accesses); replayability follows
    the underlying stream.
    """

    __slots__ = ("stream", "line_size")

    def __init__(self, stream: TraceStream, line_size: int):
        self.stream = stream
        self.line_size = line_size

    @property
    def replayable(self) -> bool:
        return self.stream.replayable

    def compiled_chunks(self) -> Iterator[CompiledTrace]:
        """Compile and yield one :class:`CompiledTrace` per chunk."""
        for chunk in self.stream.chunks():
            if isinstance(chunk, ArrayChunk):
                yield _compile_arrays(chunk, self.line_size)
            else:
                yield compile_trace(list(chunk), self.line_size)

    def __iter__(self) -> Iterator[Access]:
        return iter(self.stream)


def compile_trace(trace: Union[Trace, CompiledTrace, TraceStream,
                               CompiledTraceStream],
                  line_size: int
                  ) -> Union[CompiledTrace, CompiledTraceStream]:
    """Coalesce consecutive same-line accesses into annotated runs.

    A materialized trace compiles to a :class:`CompiledTrace`; a
    :class:`~repro.traces.stream.TraceStream` compiles lazily to a
    :class:`CompiledTraceStream` (per-chunk, bounded memory).
    """
    if isinstance(trace, CompiledTraceStream):
        if trace.line_size == line_size:
            return trace
        return CompiledTraceStream(trace.stream, line_size)
    if isinstance(trace, TraceStream):
        return CompiledTraceStream(trace, line_size)
    if isinstance(trace, ArrayChunk):
        return _compile_arrays(trace, line_size)
    if isinstance(trace, CompiledTrace):
        if trace.line_size == line_size:
            return trace
        accesses = trace.accesses
        if isinstance(accesses, ArrayChunk):
            return _compile_arrays(accesses, line_size)
    else:
        accesses = list(trace)
    fetch = AccessKind.FETCH
    store = AccessKind.STORE
    runs: List[_Run] = []
    i = 0
    n = len(accesses)
    while i < n:
        head = accesses[i]
        line = head.addr // line_size
        n_fetch = n_load = n_store = total = 0
        stores: List[Tuple[int, int]] = []
        j = i
        while j < n:
            access = accesses[j]
            if access.addr // line_size != line:
                break
            kind = access.kind
            if kind is store:
                n_store += 1
                if (stores
                        and stores[-1][0] + stores[-1][1] == access.addr
                        and stores[-1][1] + access.size <= 256):
                    # Contiguous with the previous store: one merged span
                    # patches the same bytes (the filler pattern tiles).
                    stores[-1] = (stores[-1][0],
                                  stores[-1][1] + access.size)
                else:
                    stores.append((access.addr, access.size))
            elif kind is fetch:
                n_fetch += 1
            else:
                n_load += 1
            total += access.size
            j += 1
        runs.append((i, j - i, line, n_fetch, n_load, n_store, total,
                     head.kind, head.addr, head.size, tuple(stores)))
        i = j
    return CompiledTrace(accesses, line_size, runs)


def _compile_arrays(chunk: ArrayChunk, line_size: int) -> CompiledTrace:
    """Vectorized :func:`compile_trace` over one :class:`ArrayChunk`.

    Produces exactly the runs the scalar compiler would produce for
    ``list(chunk)`` — same ``_Run`` tuples, plain-int fields — with all
    the per-access arithmetic (line numbers, run boundaries, per-run
    kind counts and byte totals, store positions) done as whole-array
    operations.  The resulting :class:`CompiledTrace` wraps the chunk
    itself as its access sequence; the lazy ``Access`` materialization
    only runs for sink event factories and rare fallback shapes.
    """
    n = len(chunk)
    if n == 0:
        return CompiledTrace(chunk, line_size, [])
    addrs = chunk.addrs
    kinds = chunk.kinds
    sizes = chunk.sizes
    lines = addrs // line_size

    breaks = np.flatnonzero(lines[1:] != lines[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=breaks.dtype), breaks))
    bounds = np.concatenate((starts, np.asarray([n], dtype=starts.dtype)))
    counts_l = np.diff(bounds).tolist()
    starts_l = starts.tolist()
    lines_l = lines[starts].tolist()

    # Per-run kind counts and byte totals via prefix sums cut at the
    # run boundaries (cumsum of a bool mask counts its True entries).
    store_mask = kinds == KIND_CODES[AccessKind.STORE]
    fetch_mask = kinds == KIND_CODES[AccessKind.FETCH]
    zero = np.zeros(1, dtype=np.int64)
    store_cum = np.concatenate((zero, np.cumsum(store_mask)))
    fetch_cum = np.concatenate((zero, np.cumsum(fetch_mask)))
    size_cum = np.concatenate((zero, np.cumsum(sizes)))
    ns_l = (store_cum[bounds[1:]] - store_cum[bounds[:-1]]).tolist()
    nf_l = (fetch_cum[bounds[1:]] - fetch_cum[bounds[:-1]]).tolist()
    nl_l = [c - s - f for c, s, f in zip(counts_l, ns_l, nf_l)]
    tot_l = (size_cum[bounds[1:]] - size_cum[bounds[:-1]]).tolist()

    by_code = KIND_BY_CODE
    head_kinds = [by_code[c] for c in kinds[starts].tolist()]
    ha_l = addrs[starts].tolist()
    hs_l = sizes[starts].tolist()

    store_idx = np.flatnonzero(store_mask)
    if store_idx.size:
        # Merge contiguous stores into spans (same greedy rule as the
        # scalar compiler), then slice the spans per run.
        sa = addrs[store_idx]
        ss = sizes[store_idx]
        store_run = np.searchsorted(starts, store_idx, side="right") - 1
        new_group = np.ones(len(store_idx), dtype=bool)
        new_group[1:] = ((sa[1:] != sa[:-1] + ss[:-1])
                         | (store_run[1:] != store_run[:-1]))
        g_start = np.flatnonzero(new_group)
        g_bounds = np.concatenate(
            (g_start, np.asarray([len(store_idx)], dtype=g_start.dtype)))
        ss_cum = np.concatenate((zero, np.cumsum(ss)))
        g_size = ss_cum[g_bounds[1:]] - ss_cum[g_bounds[:-1]]
        if int(g_size.max()) > 256:
            # A merged span the filler pattern cannot tile (only possible
            # with line sizes past 256): use the scalar compiler's greedy
            # splitting instead.
            return compile_trace(list(chunk), line_size)
        g_addr = sa[g_start].tolist()
        g_size_l = g_size.tolist()
        g_run = store_run[g_start]
        run_ids = np.arange(len(starts), dtype=g_run.dtype)
        glo_l = np.searchsorted(g_run, run_ids).tolist()
        ghi_l = np.searchsorted(g_run, run_ids, side="right").tolist()
        pairs_l = [
            () if lo == hi
            else ((g_addr[lo], g_size_l[lo]),) if hi == lo + 1
            else tuple(zip(g_addr[lo:hi], g_size_l[lo:hi]))
            for lo, hi in zip(glo_l, ghi_l)
        ]
    else:
        pairs_l = [()] * len(starts_l)
    runs = list(zip(starts_l, counts_l, lines_l, nf_l, nl_l, ns_l, tot_l,
                    head_kinds, ha_l, hs_l, pairs_l))
    return CompiledTrace(chunk, line_size, runs)


def _compiled_chunks(trace, line_size: int) -> Iterator[CompiledTrace]:
    """Yield compiled chunks for any accepted trace shape.

    Materialized traces become a single chunk; streams compile chunk by
    chunk so peak memory stays one chunk regardless of trace length.
    """
    compiled = compile_trace(trace, line_size)
    if isinstance(compiled, CompiledTraceStream):
        yield from compiled.compiled_chunks()
    else:
        yield compiled


def execute(system, trace: Union[Trace, CompiledTrace, TraceStream,
                                 CompiledTraceStream]) -> None:
    """Replay ``trace`` on ``system`` via the batched path.

    Mutates the system exactly like replaying the trace one access at a
    time (see the module docstring for the precise equivalence contract).
    ``trace`` may be materialized or a chunk stream; chunked execution
    carries all simulator state (LRU order, dirty bits, deferred fills,
    counters, cycle clock) across chunk boundaries, so metrics are
    byte-identical to the materialized path at any chunk size.
    """
    engine = system.engine
    cache = system.cache
    cfg = cache.config
    line_size = cfg.line_size

    sink = system.sink
    num_sets = cfg.num_sets
    assoc = cfg.associativity
    write_back = cfg.write_policy is WritePolicy.WRITE_BACK
    write_allocate = cfg.write_allocate
    hit_latency = cfg.hit_latency
    issue = system.issue_cycles
    per_access = engine.per_access_cycles() \
        if engine.placement is Placement.CPU_CACHE else 0
    step_cycles = issue + per_access + hit_latency
    write_buffer = system.write_buffer
    line_data = system._line_data
    counts = system._counts
    port = system.port
    fetch_kind = AccessKind.FETCH
    store_kind = AccessKind.STORE

    # The cache's own state, mutated in place: per-set line lists (LRU
    # first, MRU last) and the dirty-line set.
    sets = cache._sets
    dirty = cache._dirty
    hits = cache.hits
    misses = cache.misses
    evictions = cache.evictions
    writebacks = cache.writebacks
    cycles = system.cycles
    # Per-kind access counters as plain int deltas — ``counts[kind]`` on
    # the shared dict pays a Python-level Enum.__hash__ per access.
    cnt_fetch = cnt_load = cnt_store = 0

    pending: List[int] = []     # line numbers with deferred fills, in order
    pending_set = set()

    def flush_fills() -> None:
        nonlocal cycles
        system.cycles = cycles
        addrs = [line * line_size for line in pending]
        filled = engine.fill_lines(port, addrs, line_size)
        for line, addr, (plaintext, fill_cycles) in zip(pending, addrs,
                                                        filled):
            cycles += fill_cycles
            line_data[line] = bytearray(plaintext)
            if sink is not None:
                sink.emit(TraceEvent(kind="fill", addr=addr, size=line_size,
                                     cycle=cycles))
        pending.clear()
        pending_set.clear()

    def one_access(kind: AccessKind, addr: int, size: int) -> None:
        """Scalar-equivalent handling of one access on the LRU lists."""
        nonlocal cycles, hits, misses, evictions, writebacks, \
            cnt_fetch, cnt_load, cnt_store
        cycles += issue
        is_write = kind is store_kind
        if is_write:
            cnt_store += 1
        elif kind is fetch_kind:
            cnt_fetch += 1
        else:
            cnt_load += 1
        if sink is not None:
            sink.emit(TraceEvent(
                kind="access", addr=addr, size=size,
                cycle=cycles, detail=kind.name.lower(),
            ))
        cycles += per_access
        line = addr // line_size
        lines = sets[line % num_sets]

        if line in lines:
            if lines[-1] != line:
                lines.remove(line)
                lines.append(line)
            hits += 1
            if sink is not None:
                sink.emit(TraceEvent(kind="hit", addr=addr,
                                     size=line_size, cycle=cycles))
            through = False
            if is_write:
                if write_back:
                    dirty.add(line)
                else:
                    through = True
            cycles += hit_latency
        else:
            misses += 1
            if sink is not None:
                sink.emit(TraceEvent(kind="miss", addr=addr,
                                     size=line_size, cycle=cycles))
            if is_write and not write_allocate:
                # Store miss bypasses the cache entirely.
                cycles += hit_latency
                through = True
            else:
                victim = None
                wb_addr = None
                if len(lines) >= assoc:
                    victim = lines.pop(0)
                    evictions += 1
                    if sink is not None:
                        sink.emit(TraceEvent(
                            kind="eviction", addr=victim * line_size,
                            size=line_size, cycle=cycles,
                        ))
                    if victim in dirty:
                        dirty.discard(victim)
                        writebacks += 1
                        wb_addr = victim * line_size
                        if sink is not None:
                            sink.emit(TraceEvent(
                                kind="writeback", addr=wb_addr,
                                size=line_size, cycle=cycles,
                            ))
                lines.append(line)
                if is_write and write_back:
                    dirty.add(line)
                through = is_write and not write_back
                cycles += hit_latency

                # External traffic, in scalar engine-call order: every
                # older deferred fill strictly precedes this access's
                # victim writeback, which precedes its own fill.
                if victim is not None:
                    if pending and (wb_addr is not None
                                    or victim in pending_set):
                        flush_fills()
                    victim_data = line_data.pop(victim, None)
                    if wb_addr is not None:
                        if victim_data is None:
                            victim_data = bytearray(line_size)
                        system.cycles = cycles
                        wb_cycles = engine.write_line(
                            port, wb_addr, bytes(victim_data)
                        )
                        if not write_buffer:
                            cycles += wb_cycles
                pending.append(line)
                pending_set.add(line)
                if is_write or len(pending) >= FLUSH_THRESHOLD:
                    # Stores patch the line below, so their fill cannot
                    # be deferred.
                    flush_fills()

        if is_write:
            payload = store_payload(addr, size)
            if line in pending_set:
                flush_fills()
            buf = line_data.get(line)
            if buf is not None:
                offset = addr - line * line_size
                end = min(offset + len(payload), line_size)
                buf[offset:end] = payload[: end - offset]
            if through:
                if pending:
                    flush_fills()
                system.cycles = cycles
                write_cycles = engine.write_partial(
                    port, addr, payload, line_size
                )
                if not write_buffer:
                    cycles += write_cycles

    try:
        # One compiled chunk at a time; every piece of execution state —
        # LRU lists, dirty set, counters, cycles, deferred fills — lives
        # outside this loop, so chunk boundaries are invisible to the
        # simulation.  Deferred fills deliberately survive boundaries:
        # flushing there would reorder the bus stream relative to the
        # materialized path.
        for compiled in _compiled_chunks(trace, line_size):
            accesses = compiled.accesses
            for start, count, line, n_fetch, n_load, n_store, total, \
                    head_kind, head_addr, head_size, stores in compiled.runs:
                one_access(head_kind, head_addr, head_size)
                tail = count - 1
                if tail == 0:
                    continue
                lines = sets[line % num_sets]
                head_is_store = head_kind is store_kind
                tail_stores = n_store - (1 if head_is_store else 0)
                if not (lines and lines[-1] == line
                        and (write_back or tail_stores == 0)):
                    # Rare shapes (write-through stores, no-write-allocate
                    # bypass) keep full per-access treatment.
                    for k in range(start + 1, start + count):
                        a = accesses[k]
                        one_access(a.kind, a.addr, a.size)
                    continue

                # Bulk tail: `tail` guaranteed hits on the already-MRU
                # line.  LRU order, set membership and engine state are
                # all untouched by a same-line hit run, so the whole run
                # reduces to counter/cycle arithmetic (plus store
                # patches).
                hits += tail
                cnt_fetch += n_fetch
                cnt_load += n_load
                cnt_store += n_store
                # ... minus the head, which one_access counted above.
                if head_is_store:
                    cnt_store -= 1
                elif head_kind is fetch_kind:
                    cnt_fetch -= 1
                else:
                    cnt_load -= 1
                if sink is not None:
                    base = cycles
                    lo, hi = start + 1, start + count

                    def access_events(base=base, lo=lo, hi=hi,
                                      accesses=accesses):
                        c = base
                        for k in range(lo, hi):
                            access = accesses[k]
                            c += issue
                            yield TraceEvent(
                                kind="access", addr=access.addr,
                                size=access.size, cycle=c,
                                detail=access.kind.name.lower(),
                            )
                            c += per_access + hit_latency

                    def hit_events(base=base, lo=lo, hi=hi,
                                   accesses=accesses):
                        c = base
                        for k in range(lo, hi):
                            access = accesses[k]
                            c += issue + per_access
                            yield TraceEvent(kind="hit", addr=access.addr,
                                             size=line_size, cycle=c)
                            c += hit_latency

                    sink.emit_bulk("access", tail, total - head_size,
                                   access_events)
                    sink.emit_bulk("hit", tail, tail * line_size,
                                   hit_events)
                cycles += tail * step_cycles

                if tail_stores:
                    if line in pending_set:
                        flush_fills()
                    dirty.add(line)
                    buf = line_data.get(line)
                    if buf is not None:
                        base_addr = line * line_size
                        # The head store's bytes may reappear inside the
                        # first merged span; repatching them is a no-op
                        # (the filler is a pure function of the address).
                        for saddr, ssize in stores:
                            payload = store_payload(saddr, ssize)
                            offset = saddr - base_addr
                            end = min(offset + len(payload), line_size)
                            buf[offset:end] = payload[: end - offset]

        if pending:
            flush_fills()
    finally:
        # Write the local counters back so flushes and reports observe
        # exactly the post-run state — even when an engine raised (e.g.
        # TamperDetected) mid-run.
        cache.hits = hits
        cache.misses = misses
        cache.evictions = evictions
        cache.writebacks = writebacks
        system.cycles = cycles
        counts[fetch_kind] += cnt_fetch
        counts[AccessKind.LOAD] += cnt_load
        counts[store_kind] += cnt_store

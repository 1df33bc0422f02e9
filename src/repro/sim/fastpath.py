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
* :func:`chunk_consumer`, the executor body, is a generator sent one
  compiled chunk at a time.  It resolves the hit stream in bulk,
  working in place on the cache's own per-set line lists and dirty set,
  and defers miss fills into groups that reach the engine through the
  bulk :meth:`~repro.core.engine.BusEncryptionEngine.fill_lines`
  interface — one batched kernel call per group for the ported engines.
  A store to a line whose fill is deferred (its own miss, or a later
  hit) queues its span on the line, patched in when the fill lands.
  Dirty victims leave through
  :meth:`~repro.core.engine.BusEncryptionEngine.spill_lines`; for an
  engine whose ``line_independent`` is True they queue, and a flush
  sends the whole queue as one group ahead of the pending fills.

The consumer has two drivers and no other caller.  :func:`execute`
pulls: it compiles the trace (or each chunk of a stream) and sends the
chunks in.  :class:`repro.sim.StreamExecutor` is pushed: each ``feed``
compiles and sends one chunk in the caller's thread.
:meth:`~repro.sim.system.SecureSystem.run` and
:meth:`~repro.sim.system.SecureSystem.step` (a one-access run) both go
through :func:`execute`, and so does the L1 of a
:class:`~repro.sim.hierarchy.TwoLevelSystem`, whose port is its L2.  This
loop is the simulator's one encoding of cache-access semantics:
:class:`~repro.sim.cache.Cache` only holds the state it works on.
Equivalence contract against the scalar one-access-at-a-time model in
``tests/reference_model.py`` (pinned by ``tests/test_fastpath.py``):

* the :class:`~repro.sim.system.SimReport` and memory are
  byte-identical — same cycles, counters, stats — for every engine;
* the bus transaction stream (op, addr, data) is identical in content.
  Its order is exact for every engine that is not ``line_independent``:
  deferred fills are flushed before any engine write, so the
  engine-call order, and therefore every engine's internal state
  evolution, matches the scalar schedule exactly.  For a
  ``line_independent`` engine over a plain memory port, per-line order
  (each line's own reads and writes) and per-op order (the read
  sequence, the write sequence) are exact; only a spill and a fill of
  *different* lines may change places.  The queues flush together,
  spills first: when either reaches :data:`FLUSH_THRESHOLD`, when a
  victim's own fill is still deferred, before any ``write_partial`` and
  at the end of the run;
* with a sink attached, aggregate totals (:class:`repro.obs.CounterSink`
  counts and byte sums) are identical.  Bulk-resolved hit runs report
  through :meth:`repro.obs.EventSink.emit_bulk`, so batches of `access`
  and `hit` events may arrive grouped by kind rather than interleaved,
  and deferred fills and queued spills carry later cycle stamps than
  their scalar twins — event *interleaving and stamps* are the
  relaxation.

The loop builds :class:`~repro.obs.TraceEvent` objects only for a sink
whose ``keeps_events`` is True.  A count-only sink (``CounterSink``,
``NullSink``) gets this loop's per-access kinds — access, hit, miss,
eviction, writeback, fill — as one :meth:`~repro.obs.EventSink.emit_bulk`
tally per kind when the run ends (or raises); with no sink, each site
costs one ``is None`` test.

Materialized traces compile through :func:`compile_trace`'s list loop and
:class:`~repro.traces.arrays.ArrayChunk` traces through the vectorized
:func:`_compile_arrays`; the input type alone picks the compiler, both
emit identical runs, and the array compiler never falls back to the list
loop.  A :class:`~repro.traces.stream.TraceStream` is
compiled chunk by chunk as :func:`execute` pulls it, so only one chunk's
accesses and runs exist at a time.
"""

from __future__ import annotations

from contextlib import closing, suppress
from functools import partial
from typing import Dict, Generator, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.engine import MemoryPort, Placement
from ..obs import TraceEvent, no_events
from ..traces.arrays import KIND_BY_CODE, KIND_CODES, ArrayChunk
from ..traces.stream import TraceStream
from ..traces.trace import Access, AccessKind, Trace
from .cache import WritePolicy
from .system import store_payload

__all__ = ["CompiledTrace", "compile_trace", "execute", "chunk_consumer",
           "FLUSH_THRESHOLD"]

#: Deferred fills are handed to ``fill_lines``, and queued spills to
#: ``spill_lines``, in groups of at most this many lines (they also flush
#: early whenever ordering requires it).
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


def _crosses_line(addr: int, size: int, line_size: int) -> ValueError:
    """The error both compilers raise for an access whose bytes leave its
    line: the executor handles each access as one line's bytes."""
    return ValueError(f"access at {addr:#x} of {size} bytes crosses its "
                      f"{line_size}-byte cache line")


def compile_trace(trace: Union[Trace, CompiledTrace, TraceStream],
                  line_size: int) -> Union[CompiledTrace, TraceStream]:
    """Coalesce consecutive same-line accesses into annotated runs.

    A materialized trace compiles to a :class:`CompiledTrace`; a
    :class:`~repro.traces.stream.TraceStream` passes through unchanged
    (:func:`execute` compiles it chunk by chunk, in bounded memory).
    An access whose bytes leave its line raises :class:`ValueError`.
    """
    if isinstance(trace, TraceStream):
        return trace
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
        line_end = (line + 1) * line_size
        n_fetch = n_load = n_store = total = 0
        stores: List[Tuple[int, int]] = []
        j = i
        while j < n:
            access = accesses[j]
            if access.addr // line_size != line:
                break
            if access.addr + access.size > line_end:
                raise _crosses_line(access.addr, access.size, line_size)
            kind = access.kind
            if kind is store:
                n_store += 1
                if stores and stores[-1][0] + stores[-1][1] == access.addr:
                    # Contiguous with the previous store: one merged span
                    # patches the same bytes (the filler is a pure
                    # function of the address).
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
    only runs for sink event factories and the executor's rare per-access
    shapes.
    """
    n = len(chunk)
    if n == 0:
        return CompiledTrace(chunk, line_size, [])
    addrs = chunk.addrs
    kinds = chunk.kinds
    sizes = chunk.sizes
    lines = addrs // line_size
    # Each access's end offset in its line, built in place: one scratch
    # array where the chained expression would allocate several.
    ends = lines * line_size
    np.subtract(addrs, ends, out=ends)
    ends += sizes
    if ends.max() > line_size:
        first = int(np.argmax(ends > line_size))
        raise _crosses_line(int(addrs[first]), int(sizes[first]), line_size)
    # Scratch arrays are dropped as soon as they are spent: a chunk's
    # temporaries, not its runs, would otherwise set the peak memory.
    del ends

    breaks = np.flatnonzero(lines[1:] != lines[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=breaks.dtype), breaks))
    del breaks
    bounds = np.concatenate((starts, np.asarray([n], dtype=starts.dtype)))
    counts_l = np.diff(bounds).tolist()
    starts_l = starts.tolist()
    lines_l = lines[starts].tolist()
    del lines

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
    del store_cum, fetch_cum, fetch_mask, size_cum, bounds

    by_code = KIND_BY_CODE
    head_kinds = [by_code[c] for c in kinds[starts].tolist()]
    ha_l = addrs[starts].tolist()
    hs_l = sizes[starts].tolist()

    pairs_l = _store_spans(addrs, sizes, store_mask, starts)
    del store_mask, starts
    runs = list(zip(starts_l, counts_l, lines_l, nf_l, nl_l, ns_l, tot_l,
                    head_kinds, ha_l, hs_l, pairs_l))
    return CompiledTrace(chunk, line_size, runs)


def _store_spans(addrs, sizes, store_mask, starts) -> List[Tuple]:
    """Each run's store spans for :func:`_compile_arrays`: contiguous
    stores merged into spans (the list compiler's rule), then sliced per
    run.  Its scratch arrays die on return, before the runs are built."""
    store_idx = np.flatnonzero(store_mask)
    if not store_idx.size:
        return [()] * len(starts)
    sa = addrs[store_idx]
    ss = sizes[store_idx]
    store_run = np.searchsorted(starts, store_idx, side="right") - 1
    new_group = np.ones(len(store_idx), dtype=bool)
    new_group[1:] = ((sa[1:] != sa[:-1] + ss[:-1])
                     | (store_run[1:] != store_run[:-1]))
    g_start = np.flatnonzero(new_group)
    g_bounds = np.concatenate(
        (g_start, np.asarray([len(store_idx)], dtype=g_start.dtype)))
    ss_cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(ss)))
    g_size_l = (ss_cum[g_bounds[1:]] - ss_cum[g_bounds[:-1]]).tolist()
    g_addr = sa[g_start].tolist()
    g_run = store_run[g_start]
    run_ids = np.arange(len(starts), dtype=g_run.dtype)
    glo_l = np.searchsorted(g_run, run_ids).tolist()
    ghi_l = np.searchsorted(g_run, run_ids, side="right").tolist()
    return [
        () if lo == hi
        else ((g_addr[lo], g_size_l[lo]),) if hi == lo + 1
        else tuple(zip(g_addr[lo:hi], g_size_l[lo:hi]))
        for lo, hi in zip(glo_l, ghi_l)
    ]


def _compiled_chunks(trace, line_size: int) -> Iterator[CompiledTrace]:
    """Yield compiled chunks for any accepted trace shape.

    Materialized traces become a single chunk; streams compile chunk by
    chunk so peak memory stays one chunk regardless of trace length.
    """
    if not isinstance(trace, TraceStream):
        yield compile_trace(trace, line_size)
        return
    for chunk in trace.chunks():
        if isinstance(chunk, ArrayChunk):
            yield _compile_arrays(chunk, line_size)
        else:
            yield compile_trace(chunk, line_size)


def execute(system, trace: Union[Trace, CompiledTrace, TraceStream]) -> None:
    """Replay ``trace`` on ``system`` via the batched path.

    Mutates the system exactly like replaying the trace one access at a
    time (see the module docstring for the precise equivalence contract).
    ``trace`` may be materialized or a chunk stream: this is the pull
    driver of :func:`chunk_consumer`, which carries all simulator state
    (LRU order, dirty bits, deferred fills, counters, cycle clock) across
    chunk boundaries, so metrics are byte-identical to the materialized
    path at any chunk size.
    """
    consumer = chunk_consumer(system)
    next(consumer)
    with closing(consumer):
        line_size = system.cache.config.line_size
        for compiled in _compiled_chunks(trace, line_size):
            consumer.send(compiled)
        with suppress(StopIteration):
            consumer.send(None)


def chunk_consumer(system) -> Generator[None, Optional[CompiledTrace], None]:
    """The executor body: a generator that runs compiled chunks on
    ``system``.

    Prime it with ``next``, then ``send`` it each :class:`CompiledTrace`
    (compiled for the system's line size) in trace order; ``None`` ends
    the run — it flushes the queued spills and deferred fills and
    returns (``send`` raises ``StopIteration``).  The counters are written
    back to the system in a ``finally``, so an engine error raised out
    of ``send``, or a
    ``close()`` mid-run, still leaves the post-run state behind.
    :func:`execute` pulls chunks into it; :class:`repro.sim.StreamExecutor`
    pushes them.
    """
    engine = system.engine
    cache = system.cache
    cfg = cache.config
    line_size = cfg.line_size

    sink = system.sink
    # Event-keeping sinks get every event through ``note``.  A count-only
    # sink gets none from this loop: the per-access kinds are tallied in
    # locals and handed over once, in the ``finally`` block below.
    keeper = sink if sink is not None and sink.keeps_events else None
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
    # Count-only tallies beyond the counters above: access bytes and
    # filled lines (hits, misses, evictions and writebacks are the cache
    # counters' deltas from these starting values).
    acc_bytes = n_fills = 0
    hits0, misses0, evictions0, writebacks0 = \
        hits, misses, evictions, writebacks

    pending: List[int] = []     # line numbers with deferred fills, in order
    pending_set = set()
    # Store spans of pending lines, patched in when the line's fill lands.
    patches: Dict[int, List[Tuple[int, int]]] = {}
    # Queued dirty-victim writebacks, in order.  Only an engine whose
    # lines are independent lets a spill wait behind fills of other lines,
    # and only over a plain memory port: a hierarchy's L2 port is itself
    # a cache whose state follows the order of its traffic.
    spills: List[Tuple[int, bytes]] = []
    queue_spills = engine.line_independent and isinstance(port, MemoryPort)

    def patch(buf: bytearray, base_addr: int, spans) -> None:
        for saddr, ssize in spans:
            payload = store_payload(saddr, ssize)
            offset = saddr - base_addr
            end = min(offset + len(payload), line_size)
            buf[offset:end] = payload[: end - offset]

    def flush() -> None:
        """Send the queued spills as one group, then the deferred fills as
        one group, patching each filled line with its queued stores."""
        nonlocal cycles, n_fills
        system.cycles = cycles
        if spills:
            spilled = engine.spill_lines(port, spills)
            spills.clear()
            if not write_buffer:
                cycles += sum(spilled)
                system.cycles = cycles
        if not pending:
            return
        addrs = [line * line_size for line in pending]
        filled = engine.fill_lines(port, addrs, line_size)
        for line, addr, (plaintext, fill_cycles) in zip(pending, addrs,
                                                        filled):
            cycles += fill_cycles
            line_data[line] = buf = bytearray(plaintext)
            spans = patches.pop(line, None)
            if spans is not None:
                patch(buf, addr, spans)
            if keeper is not None:
                keeper.note("fill", addr=addr, size=line_size, cycle=cycles)
        n_fills += len(addrs)
        pending.clear()
        pending_set.clear()

    def one_access(kind: AccessKind, addr: int, size: int) -> None:
        """Scalar-equivalent handling of one access on the LRU lists."""
        nonlocal cycles, hits, misses, evictions, writebacks, \
            cnt_fetch, cnt_load, cnt_store, acc_bytes
        cycles += issue
        is_write = kind is store_kind
        if is_write:
            cnt_store += 1
        elif kind is fetch_kind:
            cnt_fetch += 1
        else:
            cnt_load += 1
        if sink is not None:
            if keeper is None:
                acc_bytes += size
            else:
                keeper.note("access", addr=addr, size=size, cycle=cycles,
                            detail=kind.name.lower())
        cycles += per_access
        line = addr // line_size
        lines = sets[line % num_sets]

        if line in lines:
            if lines[-1] != line:
                lines.remove(line)
                lines.append(line)
            hits += 1
            if keeper is not None:
                keeper.note("hit", addr=addr, size=line_size, cycle=cycles)
            through = False
            if is_write:
                if write_back:
                    dirty.add(line)
                else:
                    through = True
            cycles += hit_latency
        else:
            misses += 1
            if keeper is not None:
                keeper.note("miss", addr=addr, size=line_size, cycle=cycles)
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
                    if keeper is not None:
                        keeper.note("eviction", addr=victim * line_size,
                                    size=line_size, cycle=cycles)
                    if victim in dirty:
                        dirty.discard(victim)
                        writebacks += 1
                        wb_addr = victim * line_size
                        if keeper is not None:
                            keeper.note("writeback", addr=wb_addr,
                                        size=line_size, cycle=cycles)
                lines.append(line)
                if is_write and write_back:
                    dirty.add(line)
                through = is_write and not write_back
                cycles += hit_latency

                # External traffic.  A victim's fill lands before its
                # writeback leaves.  A queued spill waits for the next
                # flush, which sends it ahead of the pending fills; any
                # other spill first flushes them, so the engine sees the
                # scalar call order.
                if victim is not None:
                    if victim in pending_set:
                        flush()
                    victim_data = line_data.pop(victim, None)
                    if wb_addr is not None:
                        victim_bytes = bytes(victim_data) \
                            if victim_data is not None else bytes(line_size)
                        if queue_spills:
                            spills.append((wb_addr, victim_bytes))
                            if len(spills) >= FLUSH_THRESHOLD:
                                flush()
                        else:
                            if pending:
                                flush()
                            system.cycles = cycles
                            wb_cycles = engine.spill_lines(
                                port, ((wb_addr, victim_bytes),))[0]
                            if not write_buffer:
                                cycles += wb_cycles
                pending.append(line)
                pending_set.add(line)
                if len(pending) >= FLUSH_THRESHOLD:
                    flush()

        if is_write:
            if through and (pending or spills):
                flush()
            if line in pending_set:
                # A store miss, or a store to a line whose fill is still
                # deferred: the span patches the line when it lands.
                patches.setdefault(line, []).append((addr, size))
            else:
                buf = line_data.get(line)
                if buf is not None:
                    patch(buf, line * line_size, ((addr, size),))
            if through:
                system.cycles = cycles
                write_cycles = engine.write_partial(
                    port, addr, store_payload(addr, size), line_size
                )
                if not write_buffer:
                    cycles += write_cycles

    def access_events(accesses, lo: int, hi: int,
                      c: int) -> Iterator[TraceEvent]:
        """The ``access`` events of a bulk hit tail starting at cycle c."""
        for k in range(lo, hi):
            access = accesses[k]
            c += issue
            yield TraceEvent(kind="access", addr=access.addr,
                             size=access.size, cycle=c,
                             detail=access.kind.name.lower())
            c += per_access + hit_latency

    def hit_events(accesses, lo: int, hi: int,
                   c: int) -> Iterator[TraceEvent]:
        """The ``hit`` events of the same tail."""
        for k in range(lo, hi):
            access = accesses[k]
            c += issue + per_access
            yield TraceEvent(kind="hit", addr=access.addr, size=line_size,
                             cycle=c)
            c += hit_latency

    try:
        # One compiled chunk per send; every piece of execution state —
        # LRU lists, dirty set, counters, cycles, deferred fills — lives
        # outside this loop, so chunk boundaries are invisible to the
        # simulation.  Deferred fills deliberately survive boundaries:
        # flushing there would reorder the bus stream relative to the
        # materialized path.
        while True:
            compiled = yield
            if compiled is None:
                break
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
                    if keeper is None:
                        acc_bytes += total - head_size
                    else:
                        lo, hi = start + 1, start + count
                        keeper.emit_bulk(
                            "access", tail, total - head_size,
                            partial(access_events, accesses, lo, hi, cycles))
                        keeper.emit_bulk(
                            "hit", tail, tail * line_size,
                            partial(hit_events, accesses, lo, hi, cycles))
                cycles += tail * step_cycles

                if tail_stores:
                    dirty.add(line)
                    # The head store's bytes may reappear inside the
                    # first merged span; repatching them is a no-op (the
                    # filler is a pure function of the address).
                    if line in pending_set:
                        patches.setdefault(line, []).extend(stores)
                    else:
                        buf = line_data.get(line)
                        if buf is not None:
                            patch(buf, line * line_size, stores)

        if pending or spills:
            flush()
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
        if sink is not None and keeper is None:
            n_accesses = cnt_fetch + cnt_load + cnt_store
            if n_accesses:
                sink.emit_bulk("access", n_accesses, acc_bytes, no_events)
            for kind, count in (("hit", hits - hits0),
                                ("miss", misses - misses0),
                                ("eviction", evictions - evictions0),
                                ("writeback", writebacks - writebacks0),
                                ("fill", n_fills)):
                if count:
                    sink.emit_bulk(kind, count, count * line_size,
                                   no_events)

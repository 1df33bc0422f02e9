"""Scalar reference model of single-level cache-access semantics.

The oracle for :func:`repro.sim.fastpath.execute`.  It replays a trace one
access at a time — ``OrderedDict`` LRU sets, per-line ``fill_line`` calls,
no run coalescing, no deferred fills — against a fresh
:class:`~repro.sim.system.SecureSystem`'s engine, memory port and counters,
and emits the same events.  The executor must match it exactly: report,
bus transaction stream (content and order), and event totals.
"""

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.core.engine import Placement
from repro.core.registry import make_engine
from repro.crypto.drbg import DRBG
from repro.obs import CounterSink, TraceEvent
from repro.sim.cache import CacheConfig, WritePolicy
from repro.sim.memory import MemoryConfig
from repro.sim.system import SecureSystem, SimReport, store_payload
from repro.traces.stream import TraceStream, chunked
from repro.traces.trace import Access, AccessKind

#: The bench workload stays inside the smallest engine-visible window
#: (the address-scrambling engine permutes a 512-line region).
REGION = 16 * 1024
_KINDS = (AccessKind.FETCH, AccessKind.LOAD, AccessKind.LOAD,
          AccessKind.STORE)


def replay(system: SecureSystem, trace) -> List["OrderedDict[int, bool]"]:
    """Replay ``trace`` on ``system`` one access at a time.

    Updates the system's cycles, access counts, cache counters and line
    data the way the executor does, but keeps the LRU state to itself.
    Returns the final sets: line -> dirty, LRU first.
    """
    engine = system.engine
    cache = system.cache
    cfg = cache.config
    line_size = cfg.line_size
    write_back = cfg.write_policy is WritePolicy.WRITE_BACK
    sink = system.sink
    sets = [OrderedDict() for _ in range(cfg.num_sets)]

    def emit(kind: str, addr: int, size: int = line_size, **kw) -> None:
        if sink is not None:
            sink.emit(TraceEvent(kind=kind, addr=addr, size=size,
                                 cycle=system.cycles, **kw))

    for access in trace:
        is_write = access.is_write
        system.cycles += system.issue_cycles
        system._counts[access.kind] += 1
        emit("access", access.addr, access.size,
             detail=access.kind.name.lower())
        if engine.placement is Placement.CPU_CACHE:
            system.cycles += engine.per_access_cycles()

        line = access.addr // line_size
        lines = sets[line % cfg.num_sets]
        fill = through = False
        if line in lines:
            lines.move_to_end(line)
            cache.hits += 1
            emit("hit", access.addr)
            if is_write:
                if write_back:
                    lines[line] = True
                else:
                    through = True
        else:
            cache.misses += 1
            emit("miss", access.addr)
            if is_write and not cfg.write_allocate:
                through = True
            else:
                if len(lines) >= cfg.associativity:
                    victim, victim_dirty = lines.popitem(last=False)
                    cache.evictions += 1
                    emit("eviction", victim * line_size)
                    victim_data = system._line_data.pop(victim, None)
                    if victim_dirty:
                        cache.writebacks += 1
                        emit("writeback", victim * line_size)
                        if victim_data is None:
                            victim_data = bytearray(line_size)
                        cycles = engine.write_line(
                            system.port, victim * line_size,
                            bytes(victim_data))
                        if not system.write_buffer:
                            system.cycles += cycles
                lines[line] = is_write and write_back
                through = is_write and not write_back
                fill = True
        system.cycles += cfg.hit_latency

        if fill:
            plaintext, cycles = engine.fill_line(
                system.port, line * line_size, line_size)
            system.cycles += cycles
            system._line_data[line] = bytearray(plaintext)
            emit("fill", line * line_size)

        if is_write:
            payload = store_payload(access.addr, access.size)
            buf = system._line_data.get(line)
            if buf is not None:
                offset = access.addr - line * line_size
                end = min(offset + len(payload), line_size)
                buf[offset:end] = payload[: end - offset]
            if through:
                cycles = engine.write_partial(
                    system.port, access.addr, payload, line_size)
                if not system.write_buffer:
                    system.cycles += cycles
    return sets


def store(system: SecureSystem, addr: int, payload: bytes) -> None:
    """Store explicit bytes: a trace store of ``len(payload)`` bytes, then
    the resident line patched with ``payload``.

    Under write-back with write-allocate the store leaves its line
    resident and dirty, so the patched state equals a store of
    ``payload`` itself.
    """
    cfg = system.cache.config
    assert cfg.write_policy is WritePolicy.WRITE_BACK and cfg.write_allocate
    system.step(Access(AccessKind.STORE, addr, len(payload)))
    line_size = cfg.line_size
    offset = addr % line_size
    end = min(offset + len(payload), line_size)
    system._line_data[addr // line_size][offset:end] = payload[: end - offset]


def make_bench_trace(n: int, seed: int = 2005,
                     fetch_only: bool = False) -> List[Access]:
    """Deterministic workload inside REGION with same-line run locality.

    Each burst stays within one cache line for one to eight accesses (the
    shape real fetch/load streams have), so the trace exercises both the
    coalesced hit-run bulk path and the deferred miss batching.
    """
    rng = DRBG(b"fastpath-bench-%d" % seed)
    out: List[Access] = []
    while len(out) < n:
        line_base = (rng.randbits(14) // 32) * 32
        for _ in range(1 + rng.randbits(3)):
            if len(out) >= n:
                break
            kind = AccessKind.FETCH if fetch_only else _KINDS[rng.randbits(2)]
            out.append(Access(addr=line_base + 4 * rng.randbits(3),
                              kind=kind, size=4))
    return out


def build(name: Optional[str], sink=None) -> SecureSystem:
    """The differential testbench: a small 2-way cache over REGION."""
    system = SecureSystem(
        engine=make_engine(name) if name else None,
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21),
        sink=sink,
    )
    system.install_image(0, DRBG(b"fastpath-image").random_bytes(REGION))
    return system


Observed = Tuple[SimReport, CounterSink, List[Tuple[str, int, bytes]]]


def run_observed(name: Optional[str], trace, reference: bool) -> Observed:
    """Run ``trace`` on a fresh :func:`build` system through the oracle
    or the executor; returns the report, event totals and bus stream."""
    sink = CounterSink()
    system = build(name, sink=sink)
    transactions: List[Tuple[str, int, bytes]] = []
    system.bus.attach_probe(
        lambda txn: transactions.append((txn.op, txn.addr, txn.data))
    )
    if reference:
        replay(system, trace)
        report = system.report(system.engine.name)
    else:
        report = system.run(trace)
    return report, sink, transactions


def differential(name: Optional[str], n: int = 2000,
                 chunk: Optional[int] = None) -> List[str]:
    """Compare the oracle with the executor for one engine; returns
    mismatches.

    With ``chunk`` set, the executor consumes the trace as a replayable
    :class:`~repro.traces.stream.TraceStream` of that chunk size instead
    of the materialized list — the chunked-vs-whole equality gate.
    """
    trace = make_bench_trace(n, fetch_only=name == "compress")
    ref_report, ref_sink, ref_bus = run_observed(name, trace, reference=True)
    fast_trace = (trace if chunk is None
                  else TraceStream(lambda: chunked(trace, chunk), length=n))
    fast_report, fast_sink, fast_bus = run_observed(name, fast_trace,
                                                    reference=False)
    problems: List[str] = []
    for field in ref_report.__dataclass_fields__:
        a, b = getattr(ref_report, field), getattr(fast_report, field)
        if a != b:
            problems.append(f"report.{field}: reference {a} != fast {b}")
    if ref_sink.summary() != fast_sink.summary():
        problems.append(
            f"event counts: {ref_sink.summary()} != {fast_sink.summary()}"
        )
    if ref_sink.bytes_summary() != fast_sink.bytes_summary():
        problems.append(
            f"event bytes: {ref_sink.bytes_summary()} != "
            f"{fast_sink.bytes_summary()}"
        )
    if ref_bus != fast_bus:
        detail = f"{len(ref_bus)} vs {len(fast_bus)} transactions"
        for i, (a, b) in enumerate(zip(ref_bus, fast_bus)):
            if a != b:
                detail = (f"first divergence at #{i}: "
                          f"{a[0]}@{a[1]:#x} vs {b[0]}@{b[1]:#x}")
                break
        problems.append(f"bus stream differs ({detail})")
    return problems

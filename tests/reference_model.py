"""Scalar reference model of single-level cache-access semantics.

The oracle for :func:`repro.sim.fastpath.execute`.  It replays a trace one
access at a time — ``OrderedDict`` LRU sets, per-line ``fill_line`` calls,
no run coalescing, no deferred fills — against a fresh
:class:`~repro.sim.system.SecureSystem`'s engine, memory port and counters,
and emits the same events.  The executor must match it exactly: report,
memory, event totals and the bus transaction stream.  The whole stream
is exact for every engine except a ``line_independent`` one, whose
spills may wait behind fills of other lines: there the read sequence, the
write sequence and each line's own traffic are exact (:func:`bus_view`).
"""

import hashlib

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.attacks import BusProbe
from repro.core.engine import Placement
from repro.core.registry import make_engine
from repro.crypto.drbg import DRBG
from repro.obs import CounterSink, TeeSink, TraceEvent
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


def reference_fill(engine, port, addr: int,
                   line_size: int) -> Tuple[bytes, int]:
    """One cache-line fill, serviced the scalar way.

    The oracle for the base :meth:`~repro.core.engine.BusEncryptionEngine.
    fill_lines` loop: the bus read, ``read_extra_cycles``, the stats and
    the ``decipher``/``stall`` events, then this line's own
    ``decrypt_line`` (a timing-only engine skips it).  Returns (plaintext,
    total cycles).
    """
    ciphertext, mem_cycles = port.read(addr, line_size)
    extra = engine.read_extra_cycles(addr, line_size, mem_cycles)
    engine.stats.lines_decrypted += 1
    engine.stats.extra_read_cycles += extra
    engine._emit("decipher", addr, line_size)
    if extra:
        engine._emit("stall", addr, extra, "read")
    plaintext = engine.decrypt_line(addr, ciphertext) if engine.functional \
        else ciphertext
    return plaintext, mem_cycles + extra


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


BusLog = List[Tuple[str, int, bytes]]
#: What the executor keeps exact of a bus stream, by view name.
BusView = Dict[str, object]
Observed = Tuple[SimReport, CounterSink, BusView, str]


def record_bus(system: SecureSystem) -> BusLog:
    """Record ``(op, addr, data)`` of every bus transfer ``system`` makes
    from now on, without giving it a sink.

    Every transfer goes through :class:`~repro.core.engine.MemoryPort`,
    which makes one memory access per bus transfer, so an identity
    memory interposer sees the bus stream in order.
    """
    log: BusLog = []

    def record(op: str, addr: int, data: bytes) -> bytes:
        log.append((op, addr, data))
        return data

    system.memory.attach_interposer(record)
    return log


def bus_log(probe: BusProbe) -> BusLog:
    """A probe's transactions as ``(op, addr, data)``."""
    return [(t.op, t.addr, t.data) for t in probe.transactions]


def by_line(bus: BusLog, line_size: int) -> Dict[int, BusLog]:
    """Each line's own transfers, in stream order."""
    lines: Dict[int, BusLog] = {}
    for transfer in bus:
        lines.setdefault(transfer[1] // line_size, []).append(transfer)
    return lines


def bus_view(bus: BusLog, line_independent: bool,
             line_size: int) -> BusView:
    """The part of ``bus`` the executor keeps exact.

    For a strict engine, the whole interleaved stream.  For a
    ``line_independent`` engine, whose queued spills may pass fills of
    other lines: the read sequence, the write sequence and every line's
    projection (its own reads and writes, in order).
    """
    if not line_independent:
        return {"stream": bus}
    return {"reads": [t for t in bus if t[0] == "read"],
            "writes": [t for t in bus if t[0] == "write"],
            "lines": by_line(bus, line_size)}


def run_observed(name: Optional[str], trace, reference: bool) -> Observed:
    """Run ``trace`` on a fresh :func:`build` system through the oracle
    or the executor; returns the report, event totals, the engine's
    :func:`bus_view` of the bus stream and a digest of memory."""
    sink, probe = CounterSink(), BusProbe()
    system = build(name, sink=TeeSink(sink, probe))
    if reference:
        replay(system, trace)
        report = system.report(system.engine.name)
    else:
        report = system.run(trace)
    memory = system.memory
    view = bus_view(bus_log(probe), system.engine.line_independent,
                    system.cache.config.line_size)
    digest = hashlib.sha256(memory.dump(0, memory.config.size)).hexdigest()
    return report, sink, view, digest


def view_problems(ref: BusView, fast: BusView) -> List[str]:
    """One line per :func:`bus_view` entry that differs."""
    problems = []
    for key in ref:
        a, b = ref[key], fast[key]
        if a == b:
            continue
        if key == "lines":
            bad = sorted(set(a) ^ set(b)) or \
                [line for line in sorted(a) if a[line] != b[line]]
            problems.append(f"bus {key} differ (first at line {bad[0]:#x})")
            continue
        detail = f"{len(a)} vs {len(b)} transactions"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                detail = (f"first divergence at #{i}: "
                          f"{x[0]}@{x[1]:#x} vs {y[0]}@{y[1]:#x}")
                break
        problems.append(f"bus {key} differ ({detail})")
    return problems


def differential(name: Optional[str], n: int = 2000,
                 chunk: Optional[int] = None) -> List[str]:
    """Compare the oracle with the executor for one engine; returns
    mismatches.

    With ``chunk`` set, the executor consumes the trace as a replayable
    :class:`~repro.traces.stream.TraceStream` of that chunk size instead
    of the materialized list — the chunked-vs-whole equality gate.
    """
    trace = make_bench_trace(n, fetch_only=name == "compress")
    ref_report, ref_sink, ref_bus, ref_memory = run_observed(
        name, trace, reference=True)
    fast_trace = (trace if chunk is None
                  else TraceStream(lambda: chunked(trace, chunk), length=n))
    fast_report, fast_sink, fast_bus, fast_memory = run_observed(
        name, fast_trace, reference=False)
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
    problems += view_problems(ref_bus, fast_bus)
    if ref_memory != fast_memory:
        problems.append("memory differs")
    return problems

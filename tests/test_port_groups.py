"""Group-level port traffic against the per-line reference port.

A fill or spill group crosses :class:`~repro.core.engine.MemoryPort` as
one ``read_lines``/``write_lines`` call: one cycle stamp and timing price
per group, and one count-only tally per layer.  The ordering contract is
that nothing else can tell: interposers see every line, in the same
order and interleaved the same way with an engine's own reads (tags,
tree nodes); a sink that keeps events sees the same stream, event by
event; counters, stats, verdicts and memory come out equal.  The oracle
is :class:`tests.reference_port.ReferencePort`, which moves one line per
call.
"""

import hashlib

import pytest

from repro.core import TamperDetected
from repro.core.engine import MemoryPort
from repro.core.registry import engine_names, make_engine
from repro.crypto import DRBG
from repro.faults import FaultInjector, FaultPlan
from repro.obs import CounterSink, RecordingSink
from repro.sim import (
    EDU_L1_L2, EDU_L2_MEMORY, CacheConfig, MemoryConfig, SecureSystem,
    TwoLevelSystem,
)
from repro.sim.bus import Bus
from repro.sim.memory import MainMemory
from repro.traces import Access, AccessKind, make_workload

from .reference_model import make_bench_trace
from .reference_port import ReferencePort

MEMORY = 1 << 21
IMAGE = DRBG(b"port-groups-image").random_bytes(16384)
L1 = CacheConfig(size=512, line_size=32, associativity=2, hit_latency=1)
L2 = CacheConfig(size=2048, line_size=32, associativity=4, hit_latency=8)


def _flat(engine, sink):
    return SecureSystem(engine=engine, cache_config=L1,
                        mem_config=MemoryConfig(size=MEMORY, latency=40),
                        sink=sink)


def _two_level(edu_level):
    def build(engine, sink):
        return TwoLevelSystem(engine=engine, l1_config=L1, l2_config=L2,
                              mem_config=MemoryConfig(size=MEMORY,
                                                      latency=60),
                              edu_level=edu_level, sink=sink)
    return build


SYSTEMS = {"flat": _flat, EDU_L2_MEMORY: _two_level(EDU_L2_MEMORY),
           EDU_L1_L2: _two_level(EDU_L1_L2)}


def _memory_port(system) -> MemoryPort:
    """The system's port onto external memory (a hierarchy's L2 holds
    it)."""
    l2 = getattr(system, "_l2", None)
    return l2.port if l2 is not None else system.port


def _use_reference_port(system) -> None:
    reference = ReferencePort.like(_memory_port(system))
    if getattr(system, "_l2", None) is not None:
        system._l2.port = reference
    else:
        system.port = reference


def _engine_state(engine):
    state = [vars(engine.stats).copy(), vars(engine.verdicts).copy()]
    inner = getattr(engine, "inner", None)
    if inner is not None:
        state += _engine_state(inner)
    return state


def _state(system, sink, log):
    memory, bus = system.memory, system.bus
    return {
        "memory": (memory.reads, memory.writes, memory.bytes_read,
                   memory.bytes_written),
        "bus": (bus.transactions, bus.bytes_transferred),
        "engine": _engine_state(system.engine),
        "report": system.report("run").to_metrics(),
        "digest": hashlib.sha256(memory.dump(0, MEMORY)).hexdigest(),
        "counts": (sink.summary(), sink.bytes_summary())
        if sink is not None else None,
        "events": list(sink.events) if isinstance(sink, RecordingSink)
        else None,
        "interposer": list(log),
    }


def _outcome(step):
    try:
        step()
    except (TamperDetected, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _plans(trace):
    """Active attacks whose triggers count reads and operations: a spoof
    on the first read of a line the trace's middle touches, and a glitch
    once the injector has seen 60 operations."""
    target = trace[len(trace) // 2].addr // 32 * 32
    return (FaultPlan("spoof", addr=target, size=32, nth_read=1),
            FaultPlan("glitch", addr=0, size=16384, after_ops=60, bits=3))


def _observe(build, name, functional, setup, trace, reference):
    engine = make_engine(name, functional=functional) if name else None
    sink = {"none": None, "counter": CounterSink(),
            "recording": RecordingSink(), "faults": None}[setup]
    try:
        system = build(engine, sink)
    except ValueError:
        return None     # the level rejects the engine
    system.install_image(0, IMAGE)
    if reference:
        _use_reference_port(system)
    log = []
    injector = None
    if setup == "faults":
        def record(op, addr, data):
            log.append((op, addr, bytes(data)))
            return data
        system.memory.attach_interposer(record)
        injector = FaultInjector(system.memory, _plans(trace)).attach()
    states = []
    for step in (lambda: system.run(trace), system.flush):
        outcome = _outcome(step)
        states.append((outcome, _state(system, sink, log),
                       injector and (injector.ops, list(injector.faults))))
    return states


@pytest.mark.parametrize("setup", ["none", "counter", "recording", "faults"])
@pytest.mark.parametrize("level", list(SYSTEMS))
@pytest.mark.parametrize("name", [None] + engine_names())
def test_groups_match_the_per_line_port(name, level, setup):
    """Every registry engine (and the plaintext baseline), functional and
    timing-only, on a flat system and at both EDU levels of a hierarchy,
    with no sink, a count-only sink, a keeper and an active attacker:
    the group calls leave exactly what one-line calls leave."""
    trace = make_bench_trace(300, fetch_only=name == "compress")
    for functional in (True, False):
        got = _observe(SYSTEMS[level], name, functional, setup, trace,
                       reference=False)
        if got is None:
            assert level == EDU_L1_L2
            return
        want = _observe(SYSTEMS[level], name, functional, setup, trace,
                        reference=True)
        assert got == want


def test_both_fault_triggers_fire():
    """The attacker of the differential above fires both its plans."""
    trace = make_bench_trace(300)
    (_, _, (ops, faults)), _ = _observe(_flat, "xom", True, "faults",
                                        trace, reference=False)
    assert [fault.kind for fault in faults] == ["spoof", "glitch"]


# -- errors in the middle of a group --------------------------------------


LINE = 32


def _port_rig(name, reference, sink, size=MEMORY):
    engine = make_engine(name)
    memory = MainMemory(MemoryConfig(size=size), sink=sink)
    engine.install_image(memory, 0, IMAGE[:4096], line_size=LINE)
    engine.attach_sink(sink)
    port = MemoryPort(memory, Bus(sink=sink))
    if reference:
        port = ReferencePort.like(port)
    return engine, port


def _port_state(engine, port, sink):
    memory, bus = port.memory, port.bus
    return ((memory.reads, memory.writes, memory.bytes_read,
             memory.bytes_written),
            (bus.transactions, bus.bytes_transferred),
            _engine_state(engine), sink.summary(), sink.bytes_summary(),
            list(sink.events) if isinstance(sink, RecordingSink) else None)


@pytest.mark.parametrize("sink_type", [CounterSink, RecordingSink])
@pytest.mark.parametrize("name", ["integrity-xom", "integrity-stream",
                                  "merkle-stream"])
def test_tamper_on_the_kth_line_counts_the_lines_before_it(name, sink_type):
    addrs = [LINE * i for i in (3, 4, 9, 10, 11, 2, 30, 31)]
    k = 4
    outcomes = []
    for reference in (False, True):
        sink = sink_type()
        engine, port = _port_rig(name, reference, sink)
        byte = port.memory.dump(addrs[k] + 5, 1)[0] ^ 0x40
        port.memory.load_image(addrs[k] + 5, bytes([byte]))
        with pytest.raises(TamperDetected) as raised:
            engine.fill_lines(port, addrs, LINE)
        outcomes.append((str(raised.value),
                         _port_state(engine, port, sink)))
    assert outcomes[0] == outcomes[1]
    # The lines before the k-th were each read, checked, priced and
    # counted; the k-th was read and failed its check before its price.
    stats, verdicts, inner_stats = outcomes[0][1][2][:3]
    assert stats["lines_decrypted"] == k
    assert verdicts == {"checks": k + 1, "tampers": 1}
    assert inner_stats["blocks_processed"] == k * LINE // 16


@pytest.mark.parametrize("sink_type", [CounterSink, RecordingSink])
@pytest.mark.parametrize("name", ["xom", "stream", "gilmont", "ds5002fp"])
def test_line_outside_memory_mid_group(name, sink_type):
    """A line past the end of memory raises the per-line ``IndexError``
    when the group reaches it, having counted the lines before it, on
    the fill side and on the spill side."""
    size = 4096
    addrs = [0, 32, 64, size - 32, size, 96, 128]
    items = [(addr, bytes(range(LINE))) for addr in addrs]
    outcomes = []
    for reference in (False, True):
        sink = sink_type()
        engine, port = _port_rig(name, reference, sink, size=size)
        with pytest.raises(IndexError) as fill_error:
            engine.fill_lines(port, addrs, LINE)
        after_fill = _port_state(engine, port, sink)
        with pytest.raises(IndexError) as spill_error:
            engine.spill_lines(port, items)
        outcomes.append((str(fill_error.value), after_fill,
                         str(spill_error.value),
                         _port_state(engine, port, sink),
                         port.memory.dump(0, size)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == outcomes[0][2] == \
        f"access [{size}, {size + LINE}) outside memory of {size} bytes"
    memory_counts = outcomes[0][3][0]
    assert memory_counts[0] == 4 and memory_counts[1] == 4


def _state_small(system, sink):
    memory = system.memory
    return (system.report("run").to_metrics(), _engine_state(system.engine),
            (memory.reads, memory.writes), list(sink.events),
            memory.dump(0, memory.config.size))


def test_system_runs_again_after_a_line_outside_memory():
    """The executor's group flush raises mid-group; the system keeps the
    counted state and runs the next trace as the per-line path would."""
    size = 8192
    bad = [Access(AccessKind.LOAD, LINE * i, 4) for i in range(6)] + \
        [Access(AccessKind.LOAD, size + LINE, 4)] + \
        [Access(AccessKind.STORE, LINE * i, 4) for i in range(8, 12)]
    good = [Access(AccessKind.STORE, LINE * i, 4) for i in range(40)] + \
        [Access(AccessKind.LOAD, LINE * i, 4) for i in range(0, 200, 3)]
    outcomes = []
    for reference in (False, True):
        sink = RecordingSink()
        system = SecureSystem(
            engine=make_engine("xom"), cache_config=L1,
            mem_config=MemoryConfig(size=size, latency=40), sink=sink)
        system.install_image(0, IMAGE[:size])
        if reference:
            _use_reference_port(system)
        with pytest.raises(IndexError) as raised:
            system.run(bad)
        first = (str(raised.value), _state_small(system, sink))
        system.run(good)
        system.flush()
        outcomes.append((first, _state_small(system, sink)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] == \
        f"access [{size + LINE}, {size + 2 * LINE}) outside memory of " \
        f"{size} bytes"


# -- count-only tallies ----------------------------------------------------


class _CallCounter(CounterSink):
    """A count-only sink that also counts the calls that reach it."""

    def __init__(self):
        super().__init__()
        self.calls = {}

    def note(self, kind, *args, **kwargs):
        self.calls[kind] = self.calls.get(kind, 0) + 1
        super().note(kind, *args, **kwargs)

    def emit_bulk(self, kind, count, total_size, events):
        self.calls[kind] = self.calls.get(kind, 0) + 1
        super().emit_bulk(kind, count, total_size, events)


#: What xom moves on the 4096-access ``mixed`` trace, kind by kind:
#: (events, bytes).  Identical to the per-line port's figures.
PORT_KINDS = {
    "bus-read": (933, 29856), "bus-write": (224, 7168),
    "decipher": (933, 29856), "encipher": (224, 7168),
    "mem-read": (933, 29856), "mem-write": (224, 7168),
    "stall": (1157, 16422),
}


def _run_counted(reference):
    sink = _CallCounter()
    system = SecureSystem(engine=make_engine("xom"), sink=sink)
    if reference:
        _use_reference_port(system)
    engine = system.engine
    groups = {"n": 0}
    for method in ("fill_lines", "spill_lines", "write_partial"):
        def counted(*args, _inner=getattr(engine, method)):
            groups["n"] += 1
            return _inner(*args)
        setattr(engine, method, counted)
    system.run(make_workload("mixed", n=4096))
    system.flush()
    return sink, groups["n"]


def test_count_only_sink_gets_one_tally_per_kind_per_group():
    sink, groups = _run_counted(reference=False)
    reference, _ = _run_counted(reference=True)
    observed = {kind: (sink.get(kind), sink.bytes_for(kind))
                for kind in PORT_KINDS}
    assert observed == PORT_KINDS
    assert sink.summary() == reference.summary()
    assert sink.bytes_summary() == reference.bytes_summary()
    for kind in PORT_KINDS:
        assert sink.calls[kind] <= groups, kind
    # The per-line port reaches the sink once per event.
    assert sum(sink.calls[kind] for kind in PORT_KINDS) < \
        sum(reference.calls[kind] for kind in PORT_KINDS) / 5

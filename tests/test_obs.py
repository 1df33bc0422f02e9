"""repro.obs: the event taxonomy, sinks, scopes and summaries."""

import hashlib
import io
import json

import pytest

from repro import obs
from repro.obs import (
    BUS_KINDS,
    CACHE_KINDS,
    CIPHER_KINDS,
    EVENT_KINDS,
    CounterSink,
    EventSink,
    JsonlSink,
    NullSink,
    RecordingSink,
    RingBufferSink,
    TallySink,
    TeeSink,
    TraceEvent,
    current_sink,
    merge_observability,
    observability_section,
    replay,
    scope,
)
from repro.api import run_experiment
from repro.attacks import BusProbe
from repro.core.registry import engine_names, make_engine
from repro.faults.campaign import run_campaign
from repro.runner.base import TaskContext
from repro.runner.experiments.e05 import task_kuhn_attack
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import make_workload

from .reference_model import build, bus_log, make_bench_trace, record_bus


def _run_system(sink, engine="stream", n=600, seed=11):
    system = SecureSystem(
        engine=make_engine(engine, functional=False),
        cache_config=CacheConfig(size=1024, line_size=32, associativity=2),
        mem_config=MemoryConfig(size=1 << 21, latency=40),
        sink=sink,
    )
    report = system.run(make_workload("mixed", n=n, seed=seed))
    return system, report


class TestTraceEvent:
    def test_defaults(self):
        ev = TraceEvent(kind="hit")
        assert (ev.addr, ev.size, ev.cycle, ev.detail, ev.data) == \
            (0, 0, 0, "", b"")

    def test_json_dict_drops_empties_hexes_payload(self):
        ev = TraceEvent(kind="bus-read", addr=0x40, size=4, cycle=9,
                        data=b"\xde\xad")
        doc = ev.to_json_dict()
        assert doc == {"kind": "bus-read", "addr": 0x40, "size": 4,
                       "cycle": 9, "data": "dead"}
        assert "detail" not in doc
        json.dumps(doc)  # must be serializable as-is

    def test_kind_groups_are_inside_the_taxonomy(self):
        for group in (CIPHER_KINDS, BUS_KINDS, CACHE_KINDS):
            assert set(group) <= set(EVENT_KINDS)


class TestSinks:
    EVENTS = [
        TraceEvent(kind="bus-read", addr=0, size=32),
        TraceEvent(kind="bus-read", addr=32, size=32),
        TraceEvent(kind="decipher", addr=0, size=32),
        TraceEvent(kind="stall", size=7, detail="read"),
    ]

    def test_counter_sink_counts_and_bytes(self):
        sink = replay(self.EVENTS, CounterSink())
        assert sink.get("bus-read") == 2
        assert sink.bytes_for("bus-read") == 64
        assert sink.get("never-seen") == 0
        assert sink.summary() == {"bus-read": 2, "decipher": 1, "stall": 1}
        assert sink.bytes_summary()["stall"] == 7

    def test_ring_buffer_keeps_the_tail(self):
        sink = RingBufferSink(capacity=2)
        replay(self.EVENTS, sink)
        assert [e.kind for e in sink.events] == ["decipher", "stall"]
        assert sink.dropped == 2
        assert sink.get("bus-read") == 2     # counters still see everything

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_recording_sink_keeps_the_head(self):
        sink = RecordingSink(max_events=3)
        replay(self.EVENTS, sink)
        assert [e.kind for e in sink.events] == \
            ["bus-read", "bus-read", "decipher"]
        assert sink.dropped == 1
        assert sum(sink.counts.values()) == 4

    def test_jsonl_sink_streams_parseable_lines(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        replay(self.EVENTS, sink)
        lines = buf.getvalue().splitlines()
        assert sink.events_written == len(self.EVENTS) == len(lines)
        assert json.loads(lines[0])["kind"] == "bus-read"

    def test_tee_fans_out_and_skips_none(self):
        a, b = CounterSink(), CounterSink()
        replay(self.EVENTS, TeeSink(a, None, b))
        assert a.summary() == b.summary()

    def test_null_sink_accepts_everything(self):
        replay(self.EVENTS, NullSink())  # must not raise


class TestNote:
    """``note(fields)`` is ``emit(TraceEvent(fields))`` for every sink."""

    FIELDS = [
        ("access", 0x40, 4, 3, "load"),
        ("bus-read", 0x40, 4, 9, "", b"\xde\xad\xbe\xef"),
        ("bus-write", 0x80, 2, 12, "", b"\x01\x02"),
        ("stall", 0, 7, 0, "read"),
        ("hit",),
    ]

    def _twins(self, make):
        noted, emitted = make(), make()
        for fields in self.FIELDS:
            noted.note(*fields)
            emitted.emit(TraceEvent(*fields))
        return noted, emitted

    @pytest.mark.parametrize("make", [RecordingSink, RingBufferSink])
    def test_event_keepers_store_the_same_events(self, make):
        noted, emitted = self._twins(make)
        assert list(noted.events) == list(emitted.events)
        assert list(noted.events) == [TraceEvent(*f) for f in self.FIELDS]
        assert noted.summary() == emitted.summary()

    def test_jsonl_sink_writes_the_same_lines(self):
        noted_out, emitted_out = io.StringIO(), io.StringIO()
        targets = iter((noted_out, emitted_out))
        noted, _ = self._twins(lambda: JsonlSink(next(targets)))
        assert noted_out.getvalue() == emitted_out.getvalue()
        assert noted.events_written == len(self.FIELDS)

    def test_bus_probe_records_the_same_transactions(self):
        noted, emitted = self._twins(BusProbe)
        assert noted.transactions == emitted.transactions
        assert [t.op for t in noted.transactions] == ["read", "write"]

    def test_counter_sink_counts_without_an_event(self):
        noted, emitted = self._twins(CounterSink)
        assert noted.summary() == emitted.summary()
        assert noted.bytes_summary() == emitted.bytes_summary()

    def test_null_sink_notes_nothing(self):
        self._twins(NullSink)  # must not raise

    def test_tee_passes_note_to_each_child(self):
        counter, recorder = CounterSink(), RecordingSink()
        tee = TeeSink(counter, None, recorder)
        for fields in self.FIELDS:
            tee.note(*fields)
        assert recorder.events == [TraceEvent(*f) for f in self.FIELDS]
        assert counter.summary() == recorder.summary()


class TestKeepsEvents:
    @pytest.mark.parametrize("make, keeps", [
        (EventSink, True),
        (RecordingSink, True),
        (RingBufferSink, True),
        (TallySink, True),
        (lambda: JsonlSink(io.StringIO()), True),
        (BusProbe, True),
        (CounterSink, False),
        (NullSink, False),
    ], ids=["EventSink", "RecordingSink", "RingBufferSink", "TallySink",
            "JsonlSink", "BusProbe", "CounterSink", "NullSink"])
    def test_builtin_sinks(self, make, keeps):
        assert make().keeps_events is keeps

    @pytest.mark.parametrize("children, keeps", [
        ((), False),
        ((None,), False),
        ((CounterSink,), False),
        ((NullSink, CounterSink), False),
        ((RecordingSink,), True),
        ((CounterSink, RecordingSink), True),
        ((NullSink, BusProbe), True),
        ((RecordingSink, BusProbe), True),
        ((lambda: TeeSink(CounterSink()), NullSink), False),
        ((lambda: TeeSink(CounterSink(), BusProbe()), NullSink), True),
    ], ids=["empty", "none", "counter", "null+counter", "recording",
            "counter+recording", "null+probe", "recording+probe",
            "tee(counter)+null", "tee(counter+probe)+null"])
    def test_tee_keeps_events_if_any_child_does(self, children, keeps):
        tee = TeeSink(*(None if make is None else make()
                        for make in children))
        assert tee.keeps_events is keeps


class TestTallySink:
    """Keepers share the counting state without inheriting count-only
    ``note``/``emit_bulk``."""

    def test_subclass_overriding_emit_sees_every_event(self):
        class Keeper(TallySink):
            def __init__(self):
                super().__init__()
                self.seen = []

            def emit(self, event):
                super().emit(event)
                self.seen.append(event)

        keeper = Keeper()
        for fields in TestNote.FIELDS:
            keeper.note(*fields)
        hits = [TraceEvent("hit", 0, 32), TraceEvent("hit", 32, 32)]
        keeper.emit_bulk("hit", 2, 64, lambda: iter(hits))
        assert keeper.keeps_events
        assert keeper.seen == [TraceEvent(*f) for f in TestNote.FIELDS] + hits
        assert keeper.get("hit") == 3
        assert keeper.bytes_for("hit") == 64

    @pytest.mark.parametrize("cls", [RecordingSink, RingBufferSink])
    def test_keepers_use_the_base_note(self, cls):
        assert cls.note is EventSink.note
        assert cls.emit_bulk is EventSink.emit_bulk
        assert cls.keeps_events is True
        assert not issubclass(cls, CounterSink)


class _Sha256File:
    """A write-only text file that keeps only the sha256 of its input."""

    closed = False

    def __init__(self) -> None:
        self.hash = hashlib.sha256()

    def write(self, text: str) -> None:
        self.hash.update(text.encode())


def _run_engines(sink) -> None:
    """Every registry engine (and the baseline) on the differential
    testbench, all reporting to ``sink``."""
    for name in [None] + engine_names():
        trace = make_bench_trace(300, fetch_only=name == "compress")
        build(name, sink=sink).run(trace)


def _run_kuhn_attack(sink) -> None:
    with scope(sink):
        task_kuhn_attack(TaskContext(quick=True))


def _run_faults(sink) -> None:
    for label, kind in (("integrity-stream", "spoof"), ("stream", "glitch"),
                        ("integrity-stream-unversioned", "replay")):
        run_campaign(label, kind, quick=True, sink=sink)


#: Producers of one event stream each, covering every site that reports
#: to a sink: the executor, engines, bus and memory (``engines``), the
#: protocol channel (E01), both Kuhn attacks (E05) and the bus-address one
#: alone, the two-level hierarchy and its L2 port (E16), and the fault
#: injector and campaign.
STREAMS = {
    "engines": _run_engines,
    "e01": lambda sink: run_experiment("e01", quick=True, trace=sink),
    "e05": lambda sink: run_experiment("e05", quick=True, trace=sink),
    "e05-kuhn-attack": _run_kuhn_attack,
    "e16": lambda sink: run_experiment("e16", quick=True, trace=sink),
    "faults": _run_faults,
}

#: (events, sha256 of the JSONL stream) of each producer, recorded when
#: every site still built its own TraceEvent for the sink.
STREAM_DIGESTS = {
    "e01": (4, "13561e517464ec5d8cef50a16688b0f2"
               "c15cc64f2c0218bb182aa096a3caf335"),
    # Re-recorded when the port-based (scrambled) attack moved onto the
    # one DallasBoard, whose probe runs report to the sink: the stream
    # gains its 1945 ``probe-run``, 5218 ``mcu-step`` and 4
    # ``attack-phase`` events after the unchanged bus-address attack's.
    # Re-recorded when cell 0's silent 3-byte class split MOV R,#imm from
    # JNZ: each attack decodes E05's ``MOV R0,#imm`` with one more probe
    # run (one ``probe-run`` and two ``mcu-step`` events, inserted where
    # the dump decodes cell 0); every other event is unchanged.
    "e05": (11624, "c41f956e66a70801a34e852fd63d0168"
                   "3f32f78713ed093d9fa32f30335bed7d"),
    # The bus-address attack alone: the whole ``e05`` stream before the
    # scrambled attack reported to the sink (plus the register probe).
    "e05-kuhn-attack": (4454, "286fe37c8ddc75eb34d28a94576b0e50"
                              "fd893cc8d02e346e6fae4077cc00bbde"),
    # Re-recorded when the hierarchy's L1 moved onto the executor: it
    # now emits one ``fill`` per L1 fill and, at L1-L2, the engine's
    # ``stall`` events (E16_KINDS pins every other kind's count).
    # Re-recorded again when store-miss fills started to defer with their
    # patches and the end-of-run barrier became one spill group: only
    # cycle stamps and the interleaving moved (STREAM_CONTENT).
    "e16": (20950, "52144a9e419029f01c0204eb4befcd1a"
                   "7647f6b330212fabe8b3ca3b507cab02"),
    # Re-recorded when store-miss fills started to defer with their
    # patches and aegis/xom spills to queue behind fills: only cycle
    # stamps and the interleaving moved (ENGINES_KINDS, STREAM_CONTENT).
    "engines": (17698, "97835a6f1c68b8b120f4ade8a862b09d"
                       "c4879e12c112071ce769e053faca37f5"),
    "faults": (944, "f5f1521c2bfa68c53c57efd1fb94e5f8"
                    "a54a3b04171a7af60b875e8c3b836c5b"),
}

#: Per-kind counts of the ``e16`` stream, recorded with the hand-rolled
#: L1; the executor-composed hierarchy adds ``fill`` and ``stall`` events
#: and leaves every other count as it was.
E16_KINDS = {"access": 7200, "bus-read": 1110, "decipher": 846,
             "encipher": 29, "eviction": 750, "hit": 6177, "mem-read": 1110,
             "miss": 1638, "writeback": 87}

#: Per-kind counts of the ``engines`` stream, recorded before the write
#: side was batched: deferring store-miss fills and queueing spills moves
#: events, never adds or drops one.
ENGINES_KINDS = {"access": 4500, "bus-read": 1640, "bus-write": 534,
                 "decipher": 907, "encipher": 261, "eviction": 529,
                 "fill": 993, "hit": 3507, "integrity-check": 198,
                 "mem-read": 1640, "mem-write": 534, "miss": 993,
                 "stall": 1168, "writeback": 294}

#: (events, sha256 of the sorted events with their cycle stamps zeroed) of
#: two streams, recorded before the write side was batched: the same
#: events with the same fields, whatever their order and stamps.
STREAM_CONTENT = {
    "e16": (20950, "87f373d668f3828294732117e9791ed0"
                   "77883465b8b87968c9d48c0d540b37ef"),
    "engines": (17698, "1ceba07a32fe0551e4795939597e5011"
                       "27c8b3f65ec258840f37204a8cfd3336"),
}

#: (transactions, sha256) of the bus probe's record of ``engines``.
#: Re-recorded when aegis/xom spills started to queue behind fills of
#: other lines, which moves transfers and their cycle stamps only
#: (PROBE_CONTENT).
PROBE_DIGEST = (2174, "00aed9568b31cce5f53e05d37f603c9c"
                      "022b685bfa4e7b341224b7dbfcc27525")

#: (reads, writes, sha256 of the sorted (op, addr, data) transfers) of
#: the same record, recorded before the write side was batched.
PROBE_CONTENT = (1640, 534, "76fc91bec4976e8a43c9f1f6580672b9"
                            "0e72731636abd64ed925f7635ce6fb08")


def _jsonl_digest(run):
    out = _Sha256File()
    sink = JsonlSink(out)
    run(sink)
    return sink.events_written, out.hash.hexdigest()


def _probe_digest(run):
    probe = BusProbe()
    run(probe)
    text = "".join(f"{t.op} {t.addr} {t.cycle} {t.data.hex()}\n"
                   for t in probe.transactions)
    return len(probe.transactions), hashlib.sha256(text.encode()).hexdigest()


class TestKeepersSeeTheFullStream:
    """Event-keeping sinks get exactly the stream every site reported
    before sites called ``note``: same events, fields and order."""

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_jsonl_stream(self, name):
        assert _jsonl_digest(STREAMS[name]) == STREAM_DIGESTS[name]

    def test_e16_moves_only_fill_and_stall_counts(self):
        sink = CounterSink()
        STREAMS["e16"](sink)
        counts = sink.summary()
        assert {kind: n for kind, n in counts.items()
                if kind not in ("fill", "stall")} == E16_KINDS
        assert (counts["fill"], counts["stall"]) == (1128, 875)

    def test_recording_sink_keeps_the_same_stream(self):
        recorder = RecordingSink()
        _run_engines(recorder)
        out = _Sha256File()
        replay(recorder.events, JsonlSink(out))
        assert (len(recorder.events), out.hash.hexdigest()) == \
            STREAM_DIGESTS["engines"]

    def test_bus_probe_sees_the_same_transactions(self):
        assert _probe_digest(_run_engines) == PROBE_DIGEST

    @pytest.mark.parametrize("name", sorted(STREAM_CONTENT))
    def test_batching_moves_events_only(self, name):
        recorder = RecordingSink()
        STREAMS[name](recorder)
        lines = sorted(repr(event._replace(cycle=0))
                       for event in recorder.events)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == STREAM_CONTENT[name]

    def test_engines_kinds_hold(self):
        sink = CounterSink()
        _run_engines(sink)
        assert sink.summary() == ENGINES_KINDS

    def test_bus_probe_content_holds(self):
        probe = BusProbe()
        _run_engines(probe)
        transfers = bus_log(probe)
        text = "".join(f"{op} {addr} {data.hex()}\n"
                       for op, addr, data in sorted(transfers))
        assert (sum(op == "read" for op, _, _ in transfers),
                sum(op == "write" for op, _, _ in transfers),
                hashlib.sha256(text.encode()).hexdigest()) == PROBE_CONTENT


class TestScope:
    def test_no_ambient_sink_by_default(self):
        assert current_sink() is None

    def test_scopes_nest_and_restore(self):
        outer, inner = CounterSink(), CounterSink()
        with scope(outer) as got:
            assert got is outer and current_sink() is outer
            with scope(inner):
                assert current_sink() is inner
            assert current_sink() is outer
        assert current_sink() is None

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with scope(CounterSink()):
                raise RuntimeError("boom")
        assert current_sink() is None

    def test_system_picks_up_ambient_sink(self):
        with scope(CounterSink()) as sink:
            _run_system(sink=None, n=200)
        assert sink.get("access") == 200


class TestSystemIntegration:
    def test_counters_agree_with_the_report(self):
        sink = CounterSink()
        _, report = _run_system(sink)
        totals = observability_section(sink)["totals"]
        hits, misses = sink.get("hit"), sink.get("miss")
        assert sink.get("access") == report.accesses
        assert hits == totals["cache_hits"] == report.cache_hits
        assert misses == totals["cache_misses"] == report.cache_misses
        assert totals["bus_transactions"] == report.bus_transactions
        assert totals["bus_bytes"] == report.bus_bytes
        assert misses / (hits + misses) == pytest.approx(report.miss_rate)
        assert sink.get("decipher") == report.lines_decrypted
        assert totals["bytes_enciphered"] == report.bytes_enciphered

    def test_observation_does_not_perturb_the_simulation(self):
        _, observed = _run_system(CounterSink())
        _, plain = _run_system(None)
        assert observed == plain

    def test_null_engine_emits_no_cipher_events(self):
        sink = CounterSink()
        system = SecureSystem(sink=sink)
        system.run(make_workload("mixed", n=300, seed=3))
        assert sink.get("encipher") == 0 and sink.get("decipher") == 0
        assert sink.get("access") == 300

    def test_bus_events_carry_the_wire_payload(self):
        sink = RecordingSink()
        _run_system(sink, n=200)
        bus_reads = [e for e in sink.events if e.kind == "bus-read"]
        assert bus_reads and all(len(e.data) == e.size for e in bus_reads)


class TestBusProbeAsSink:
    def test_teed_probe_beside_a_counter(self):
        """E18's shape: a probe teed beside the task's counter sink leaves
        the counters as they were and sees the sink-free bus stream."""
        def build(sink):
            return SecureSystem(
                engine=make_engine("stream"),
                cache_config=CacheConfig(size=1024, line_size=32,
                                         associativity=2),
                mem_config=MemoryConfig(size=1 << 21, latency=40),
                sink=sink,
            )

        trace = make_workload("mixed", n=600, seed=11)
        counter, probe = CounterSink(), BusProbe()
        build(TeeSink(counter, probe)).run(trace)
        twin = CounterSink()
        build(twin).run(trace)
        sink_free = build(None)
        recorded = record_bus(sink_free)
        sink_free.run(trace)

        assert observability_section(counter) == observability_section(twin)
        assert probe.transactions
        assert bus_log(probe) == recorded

    def test_probe_ignores_non_bus_kinds(self):
        probe = BusProbe()
        replay([TraceEvent(kind="hit"), TraceEvent(kind="decipher")], probe)
        assert probe.transactions == []


class TestSummary:
    def test_section_totals_derive_from_counters(self):
        sink = CounterSink()
        _run_system(sink)
        section = observability_section(sink)
        totals = section["totals"]
        assert totals["events"] == sum(section["counters"].values())
        assert totals["bus_transactions"] == \
            sum(section["counters"].get(k, 0) for k in BUS_KINDS)
        assert totals["stall_cycles"] == \
            section["bytes_by_kind"].get("stall", 0)

    def test_merge_equals_one_big_sink(self):
        a, b = CounterSink(), CounterSink()
        both = CounterSink()
        events_a = [TraceEvent(kind="hit"), TraceEvent(kind="miss", size=32)]
        events_b = [TraceEvent(kind="hit"), TraceEvent(kind="stall", size=5)]
        replay(events_a, a), replay(events_b, b)
        replay(events_a + events_b, both)
        merged = merge_observability(
            [observability_section(a), observability_section(b)]
        )
        assert merged == observability_section(both)

    def test_merge_of_merges_is_stable(self):
        sink = CounterSink()
        replay([TraceEvent(kind="encipher", size=32)], sink)
        section = observability_section(sink)
        once = merge_observability([section])
        assert merge_observability([once]) == once

    def test_format_counter_table_lists_every_kind(self):
        sink = CounterSink()
        _run_system(sink)
        table = obs.format_counter_table(sink, title="t")
        for kind in sink.counts:
            assert kind in table


class TestEmitBench:
    def test_micro_benchmark_runs_all_tiers(self):
        from repro.obs.bench import measure_emit_overhead

        results = measure_emit_overhead(accesses=300, repeats=1)
        assert [label for label, _ in results] == \
            ["disabled (sink=None)", "NullSink", "CounterSink",
             "RecordingSink"]
        assert all(wall > 0 for _, wall in results)

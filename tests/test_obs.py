"""repro.obs: the event taxonomy, sinks, scopes and summaries."""

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
    JsonlSink,
    NullSink,
    RecordingSink,
    RingBufferSink,
    TeeSink,
    TraceEvent,
    current_sink,
    merge_observability,
    observability_section,
    replay,
    scope,
)
from repro.attacks import BusProbe
from repro.core.registry import make_engine
from repro.sim import CacheConfig, MemoryConfig, SecureSystem
from repro.traces import make_workload

from .reference_model import bus_log, record_bus


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
            ["disabled (sink=None)", "NullSink", "CounterSink"]
        assert all(wall > 0 for _, wall in results)

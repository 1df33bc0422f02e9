"""Workload generators: determinism, parameter effects, statistics."""

import pytest

from repro.crypto import DRBG
from repro.traces import (
    Access,
    AccessKind,
    WORKLOAD_NAMES,
    iter_branchy_code,
    iter_data_stream,
    iter_mixed_workload,
    iter_pointer_chase,
    iter_random_data,
    iter_sequential_code,
    iter_write_burst,
    make_workload,
    standard_suite,
    synthetic_code_image,
    trace_stats,
)


class TestAccess:
    def test_validation(self):
        with pytest.raises(ValueError):
            Access(AccessKind.LOAD, -1)
        with pytest.raises(ValueError):
            Access(AccessKind.LOAD, 0, size=0)

    def test_is_write(self):
        assert Access(AccessKind.STORE, 0).is_write
        assert not Access(AccessKind.FETCH, 0).is_write


class TestGenerators:
    def test_sequential_addresses(self):
        trace = list(iter_sequential_code(10, base=100, step=4))
        assert [a.addr for a in trace[:3]] == [100, 104, 108]
        assert all(a.kind is AccessKind.FETCH for a in trace)

    def test_sequential_wraps(self):
        trace = list(iter_sequential_code(5, step=4, code_size=8))
        assert [a.addr for a in trace] == [0, 4, 0, 4, 0]

    def test_branchy_determinism(self):
        a = list(iter_branchy_code(100, DRBG(1)))
        b = list(iter_branchy_code(100, DRBG(1)))
        assert a == b

    def test_branchy_p_taken_extremes(self):
        never = list(iter_branchy_code(50, DRBG(1), p_taken=0.0))
        deltas = {never[i + 1].addr - never[i].addr for i in range(49)}
        assert deltas <= {4, 4 - 64 * 1024}
        always = list(iter_branchy_code(200, DRBG(1), p_taken=1.0))
        jumps = sum(
            1 for i in range(199)
            if always[i + 1].addr - always[i].addr != 4
        )
        assert jumps > 150

    def test_data_stream_write_fraction(self):
        trace = list(iter_data_stream(2000, DRBG(2), write_fraction=0.5))
        stats = trace_stats(trace)
        assert 0.4 < stats["write_fraction"] < 0.6

    def test_data_stream_read_only(self):
        trace = list(iter_data_stream(100, DRBG(2), write_fraction=0.0))
        assert trace_stats(trace)["stores"] == 0

    def test_data_stream_validation(self):
        with pytest.raises(ValueError):
            list(iter_data_stream(10, DRBG(1), write_fraction=1.5))
        with pytest.raises(ValueError):
            list(iter_data_stream(10, DRBG(1), locality=-0.1))

    def test_random_data_is_cache_hostile(self):
        trace = list(iter_random_data(500, DRBG(3), working_set=1 << 20))
        addrs = {a.addr for a in trace}
        assert len(addrs) > 400  # essentially no reuse

    def test_pointer_chase_visits_nodes(self):
        trace = list(iter_pointer_chase(100, DRBG(4), nodes=100, node_size=32))
        assert len({a.addr for a in trace}) == 100

    def test_write_burst(self):
        trace = list(iter_write_burst(10, base=0, write_size=4))
        assert all(a.kind is AccessKind.STORE and a.size == 4 for a in trace)
        assert trace[1].addr == 4

    def test_write_burst_stride(self):
        trace = list(iter_write_burst(4, base=0, write_size=2, stride=64))
        assert [a.addr for a in trace] == [0, 64, 128, 192]

    def test_mixed_workload_composition(self):
        trace = list(iter_mixed_workload(2000, DRBG(5)))
        stats = trace_stats(trace)
        assert stats["fetches"] > 0 and stats["loads"] > 0
        assert stats["accesses"] == 2000


class TestSuite:
    def test_all_names_build(self):
        suite = standard_suite(n=200)
        assert set(suite) == set(WORKLOAD_NAMES)
        assert all(len(t) > 0 for t in suite.values())

    def test_deterministic(self):
        assert make_workload("branchy", n=100) == make_workload("branchy", n=100)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_workload("spec2006")


class TestCodeImage:
    def test_size_and_determinism(self):
        a = synthetic_code_image(size=4096)
        b = synthetic_code_image(size=4096)
        assert len(a) == 4096 and a == b

    def test_different_seeds_differ(self):
        assert synthetic_code_image(seed=1) != synthetic_code_image(seed=2)

    def test_code_like_redundancy(self):
        """The image must be compressible (skewed words + idioms)."""
        from repro.compression import shannon_entropy
        image = synthetic_code_image(size=16 * 1024)
        assert shannon_entropy(image) < 7.0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            synthetic_code_image(size=13)


class TestGeneratorValidation:
    """Degenerate parameters fail fast with a one-line ValueError."""

    def test_zero_accesses(self):
        for name in WORKLOAD_NAMES:
            with pytest.raises(ValueError, match="positive access count"):
                make_workload(name, n=0)

    def test_negative_accesses(self):
        with pytest.raises(ValueError, match="positive access count"):
            list(iter_sequential_code(-5))

    def test_step_and_code_size(self):
        with pytest.raises(ValueError):
            list(iter_sequential_code(10, step=0))
        with pytest.raises(ValueError):
            list(iter_sequential_code(10, step=64, code_size=32))

    def test_branchy_probability_range(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                list(iter_branchy_code(10, DRBG(1), p_taken=bad))

    def test_working_set_bounds(self):
        with pytest.raises(ValueError):
            list(iter_data_stream(10, DRBG(1), working_set=2, size=8))

    def test_mixed_fetch_fraction(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                list(iter_mixed_workload(10, DRBG(1), fetch_fraction=bad))


class TestEventsRoundTrip:
    """events_to_trace preserves size/kind for every event shape."""

    def test_obs_round_trip(self):
        from repro.traces import events_to_trace, trace_to_events

        trace = make_workload("mixed", n=500)
        assert events_to_trace(trace_to_events(trace)) == trace

    def test_non_access_kinds_skipped(self):
        from repro.obs.events import TraceEvent
        from repro.traces import events_to_trace

        events = [
            TraceEvent(kind="access", addr=0x40, size=4, detail="load"),
            TraceEvent(kind="hit", addr=0x40, size=4),
            TraceEvent(kind="bus-read", addr=0x40, size=32),
        ]
        trace = events_to_trace(events)
        assert trace == [Access(AccessKind.LOAD, 0x40, 4)]

    def test_unknown_kind_rejected(self):
        from repro.obs.events import TraceEvent
        from repro.traces import events_to_trace

        with pytest.raises(ValueError, match="unknown event kind"):
            events_to_trace([TraceEvent(kind="telepathy", addr=0, size=1)])

    def test_unknown_detail_rejected(self):
        from repro.obs.events import TraceEvent
        from repro.traces import events_to_trace

        with pytest.raises(ValueError, match="unknown detail"):
            events_to_trace(
                [TraceEvent(kind="access", addr=0, size=4, detail="poke")])

    def test_non_positive_size_rejected(self):
        from repro.obs.events import TraceEvent
        from repro.traces import events_to_trace

        with pytest.raises(ValueError, match="non-positive size"):
            events_to_trace(
                [TraceEvent(kind="access", addr=0, size=0, detail="load")])

    def test_foreign_object_rejected(self):
        from repro.traces import events_to_trace

        with pytest.raises(ValueError, match="neither"):
            events_to_trace([object()])

    def test_mcu_step_events_are_byte_sized(self):
        from repro.isa.programs import fibonacci_program, mcu_trace
        from repro.traces import events_to_trace

        events = mcu_trace(fibonacci_program(count=5), memory_size=2048,
                           max_steps=2000)
        trace = events_to_trace(events)
        assert trace and all(a.size == 1 for a in trace)

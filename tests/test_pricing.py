"""The one pricing function: every engine against one plaintext baseline.

``price_engines`` runs the baseline once per trace and geometry, however
many engines it prices; these tests hold it to a per-engine oracle made
of two direct ``run_trace`` calls, count its baselines and its events,
and check its laziness and its one-shot-stream guard.
"""

from collections import Counter

import pytest

import repro.analysis.overhead as overhead
from repro.analysis import measure_overhead, overhead_grid, price_engines
from repro.core.registry import engine_names, make_engine
from repro.obs import CounterSink, scope
from repro.sim import CacheConfig, MemoryConfig, run_trace
from repro.traces import TraceStream, chunked, make_workload

IMAGE = bytes(8 * 1024)
SYSTEM = dict(image=IMAGE,
              cache_config=CacheConfig(size=1024, line_size=32,
                                       associativity=2),
              mem_config=MemoryConfig(latency=40))
#: Seven survey engines, the E14 quick table's width.
SEVEN = tuple(engine_names(survey_only=True))[:7]


def _trace(n=400, workload="mixed"):
    return [type(a)(a.kind, a.addr % len(IMAGE), a.size)
            for a in make_workload(workload, n=n)]


def _factory(name):
    return lambda: make_engine(name, functional=False)


def _counts(run):
    """Per-kind event counts and bytes of everything ``run`` simulates."""
    sink = CounterSink()
    with scope(sink):
        run()
    return Counter(sink.summary()), Counter(sink.bytes_summary())


@pytest.fixture
def baselines(monkeypatch):
    """Count the plaintext-baseline runs the pricing function makes."""
    runs = []
    original = overhead.run_trace

    def spy(trace, engine=None, **kwargs):
        if engine is None:
            runs.append(trace)
        return original(trace, engine=engine, **kwargs)

    monkeypatch.setattr(overhead, "run_trace", spy)
    return runs


class TestAgainstTheOracle:
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_each_result_is_two_direct_runs(self, k, baselines):
        trace = _trace()
        names = SEVEN[:k]
        results = list(price_engines([_factory(n) for n in names], trace,
                                     "mixed", **SYSTEM))
        assert len(baselines) == 1
        assert len(results) == k
        baseline = run_trace(trace, engine=None, **SYSTEM)
        for name, result in zip(names, results):
            secured = run_trace(trace, engine=make_engine(
                name, functional=False), **SYSTEM)
            assert result.secured == secured, name
            assert result.baseline == baseline, name
            assert result.engine_name == secured.label
            assert result.workload == "mixed"
            assert result.overhead == secured.overhead_vs(baseline)

    def test_replayable_stream_prices_like_the_list(self, baselines):
        trace = _trace()
        factories = [_factory(n) for n in SEVEN[:2]]
        streamed = list(price_engines(
            factories, TraceStream(lambda: chunked(trace, 64)), **SYSTEM))
        whole = list(price_engines(factories, trace, **SYSTEM))
        assert len(baselines) == 2
        assert [(r.secured, r.baseline) for r in streamed] == \
            [(r.secured, r.baseline) for r in whole]

    def test_one_shot_stream_rejected_before_any_run(self, baselines):
        built = []
        stream = TraceStream(iter([_trace(50)]))
        with pytest.raises(TypeError, match=r"price_engines\(\) replays"):
            price_engines([lambda: built.append(1)] * 2, stream)
        assert not built and not baselines
        assert len(list(stream)) == 50

    def test_measure_overhead_is_the_one_factory_call(self):
        trace = _trace()
        [priced] = price_engines([_factory("xom")], trace, "w", **SYSTEM)
        measured = measure_overhead(_factory("xom"), trace, "w", **SYSTEM)
        assert (measured.secured, measured.baseline) == \
            (priced.secured, priced.baseline)


class TestOneBaseline:
    def test_events_are_k_secured_runs_plus_one_baseline(self):
        trace = _trace()
        names = SEVEN[:4]
        got = _counts(lambda: list(price_engines(
            [_factory(n) for n in names], trace, **SYSTEM)))
        want = _counts(lambda: run_trace(trace, engine=None, **SYSTEM))
        for name in names:
            counts, nbytes = _counts(lambda: run_trace(
                trace, engine=make_engine(name, functional=False), **SYSTEM))
            want[0].update(counts)
            want[1].update(nbytes)
        assert got == want

    def test_lazy_and_in_order_first_secured_before_baseline(
            self, monkeypatch):
        order = []
        original = overhead.run_trace

        def spy(trace, engine=None, **kwargs):
            report = original(trace, engine=engine, **kwargs)
            order.append(report.label if engine is not None else None)
            return report

        monkeypatch.setattr(overhead, "run_trace", spy)
        results = price_engines([_factory(n) for n in ("stream", "xom")],
                                _trace(), **SYSTEM)
        assert order == []
        first = next(results)
        assert order == [first.secured.label, None]
        second = next(results)
        assert order == [first.secured.label, None, second.secured.label]
        assert second.baseline is first.baseline

    def test_overhead_grid_runs_one_baseline_per_workload(self, baselines):
        workloads = {name: _trace(300, name)
                     for name in ("mixed", "sequential", "write-heavy")}
        grid = overhead_grid({n: _factory(n) for n in SEVEN[:3]}, workloads,
                             **SYSTEM)
        assert len(grid) == 9
        assert len(baselines) == len(workloads)
        assert [(r.workload, r.engine_name) for r in grid] == \
            [(w, n) for w in workloads for n in SEVEN[:3]]

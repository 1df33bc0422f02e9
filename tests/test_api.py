"""repro.api: the typed experiment facade and its deprecation shims."""

import dataclasses
import json

import pytest

from repro.api import (
    CampaignResult,
    CampaignSpec,
    ExperimentResult,
    TraceSummary,
    attack_summary,
    engine_overhead,
    run_campaign,
    run_experiment,
    run_stream,
    trace_experiment,
)
from repro.obs import RecordingSink
from repro.runner import ExperimentRunner, list_experiments


class TestRunExperiment:
    def test_returns_typed_result(self):
        result = run_experiment("e01", quick=True)
        assert isinstance(result, ExperimentResult)
        assert result.experiment == "e01"
        assert result.quick is True
        assert result.passed
        assert result.tasks
        obs = result.observability
        assert set(obs["tasks"]) == set(result.tasks)
        assert obs["total"]["totals"]["events"] > 0

    def test_result_is_frozen(self):
        result = run_experiment("e01", quick=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.experiment = "e02"

    def test_to_dict_is_json_serializable(self):
        doc = run_experiment("e01", quick=True).to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert set(doc) == {"title", "section", "checks", "tasks",
                            "observability"}

    def test_matches_the_runner_byte_for_byte(self, tmp_path):
        facade = run_experiment("e01", quick=True)
        runner_doc = ExperimentRunner(
            experiments=["e01"], quick=True, cache_dir=None,
        ).run().metrics["experiments"]["e01"]
        assert facade.tasks == runner_doc["tasks"]
        assert facade.checks == runner_doc["checks"]
        assert facade.observability == runner_doc["observability"]

    def test_trace_sink_sees_the_run(self):
        recording = RecordingSink(max_events=50)
        run_experiment("e01", quick=True, trace=recording)
        assert recording.events
        assert recording.get("protocol-msg") > 0

    def test_unknown_experiment_raises_key_error(self):
        with pytest.raises(KeyError):
            run_experiment("e99")


@pytest.fixture(scope="module")
def quick_runner_entries():
    """Every experiment's entry from one uncached serial quick runner."""
    return ExperimentRunner(quick=True, workers=1, cache_dir=None
                            ).run().metrics["experiments"]


@pytest.mark.parametrize("experiment_id", list_experiments())
def test_api_document_is_the_runner_entry(quick_runner_entries,
                                          experiment_id):
    # The serve op returns to_document(); the bench documents commit the
    # runner's entry.  They must be the same experiment record.
    document = run_experiment(experiment_id, quick=True).to_document()
    assert document == {"experiment": experiment_id, "quick": True,
                        **quick_runner_entries[experiment_id]}


class TestTraceExperiment:
    def test_summary_shape(self):
        summary = trace_experiment("e01", max_events=10)
        assert isinstance(summary, TraceSummary)
        assert summary.experiment == "e01"
        assert len(summary.events) <= 10
        assert summary.total_events == len(summary.events) + summary.dropped
        assert summary.totals["events"] == summary.total_events
        assert summary.result.passed

    def test_counters_cover_recorded_kinds(self):
        summary = trace_experiment("e01")
        assert {e.kind for e in summary.events} <= set(summary.counters)

    def test_format_mentions_experiment_and_kinds(self):
        summary = trace_experiment("e01")
        text = summary.format()
        assert "e01 events" in text
        for kind in summary.counters:
            assert kind in text


class TestOneShotMeasurements:
    def test_engine_overhead(self):
        result = engine_overhead("stream", "sequential", accesses=400)
        assert result.engine_name
        assert result.baseline.cycles > 0
        assert result.secured.cycles >= result.baseline.cycles

    def test_attack_summary(self):
        summary = attack_summary(memory=256)
        assert summary["fully_recovered"]
        assert summary["bytes_recovered"] == 256


class TestAddressScrambledStream:
    """The scrambled region covers the stream image, whatever its size."""

    @pytest.mark.parametrize("image_size", [32 * 1024, 20000])
    def test_region_covers_the_image(self, image_size):
        doc = run_stream(engine="addr-scramble-stream", accesses=300,
                         image_size=image_size)
        assert doc["metrics"]["accesses"] == 300
        # 32 KiB and 20000 bytes both round up to 1024 lines.
        assert doc == run_stream(engine="addr-scramble-stream",
                                 accesses=300, image_size=image_size,
                                 region_lines=1024)

    def test_an_explicit_region_wins(self):
        with pytest.raises(ValueError, match="outside the scrambled region"):
            run_stream(engine="addr-scramble-stream", accesses=300,
                       region_lines=512)


class TestRunCampaign:
    SPEC = CampaignSpec(engines=("stream",), workloads=("mixed",),
                        accesses=(256,), latencies=(20, 40))

    def test_returns_typed_result(self, tmp_path):
        result = run_campaign(self.SPEC, cache_dir=tmp_path / "cache")
        assert isinstance(result, CampaignResult)
        assert set(result.points) == {p.name for p in self.SPEC.points()}
        assert result.executed == 2
        assert result.summary["by_engine"]["stream"]["points"] == 2
        assert json.loads(result.metrics_json()) == result.metrics

    def test_resumes_from_cache(self, tmp_path):
        first = run_campaign(self.SPEC, cache_dir=tmp_path / "cache")
        again = run_campaign(self.SPEC, cache_dir=tmp_path / "cache")
        assert again.executed == 0
        assert again.cached == 2
        assert again.metrics_json() == first.metrics_json()


class TestFinalizedSurface:
    def test_deprecated_aliases_are_gone(self):
        import repro.api as api
        assert not hasattr(api, "run_overhead")
        assert not hasattr(api, "run_attack")

    def test_all_exports_resolve_and_cover_the_verbs(self):
        import repro.api as api
        for name in api.__all__:
            assert getattr(api, name) is not None, name
        assert {"run_experiment", "trace_experiment", "run_campaign",
                "engine_overhead", "attack_summary", "fault_campaign",
                "make_engine", "engine_names",
                "list_engines"} <= set(api.__all__)

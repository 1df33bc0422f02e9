"""Campaigns: grid expansion, sharding, deterministic merge, resume."""

import json
import random

import pytest

from repro.analysis import measure_overhead
from repro.campaign import (
    CampaignCoordinator,
    CampaignSpec,
    build_document,
    execute_point,
    merge_shard_documents,
    shard_document,
)
from repro.campaign import worker
from repro.campaign.bench import scaling_grid
from repro.core.registry import make_engine
from repro.runner import ResultCache, stable_floats, task_seed, \
    to_canonical_json
from repro.sim import CacheConfig, MemoryConfig
from repro.traces import make_workload

SMALL = CampaignSpec(
    engines=("stream", "xom"),
    workloads=("mixed", "sequential"),
    accesses=(256,),
    cache_sizes=(1024, 4096),
    latencies=(20,),
)


class TestSpec:
    def test_size_matches_expansion(self):
        assert SMALL.size == 8
        assert len(SMALL.points()) == 8

    def test_points_are_sorted_and_named(self):
        names = [p.name for p in SMALL.points()]
        assert names == sorted(names)
        assert "stream/mixed/n256/c1024x32x2/l20/s2005" in names

    def test_task_keys_are_stable_and_distinct(self):
        points = SMALL.points()
        keys = [p.task_key() for p in points]
        assert len(set(keys)) == len(keys)
        assert keys == [p.task_key() for p in SMALL.points()]

    def test_task_key_differs_from_experiment_namespace(self):
        point = SMALL.points()[0]
        clash = ResultCache.task_key(
            point.kind, point.name, dict(point.params), quick=False)
        assert point.task_key() != clash

    def test_dict_round_trip(self):
        assert CampaignSpec.from_dict(SMALL.to_dict()) == SMALL

    def test_unknown_spec_field_rejected(self):
        doc = SMALL.to_dict()
        doc["ciphers"] = ["aes"]
        with pytest.raises(ValueError, match="ciphers"):
            CampaignSpec.from_dict(doc)

    def test_unknown_engine_and_workload_rejected(self):
        with pytest.raises(KeyError, match="sealer"):
            CampaignSpec(engines=("sealer",)).points()
        with pytest.raises(KeyError, match="weird"):
            CampaignSpec(workloads=("weird",)).points()

    def test_invalid_cache_geometry_names_the_combo(self):
        spec = CampaignSpec(cache_sizes=(1000,), line_sizes=(32,),
                            associativities=(3,))
        with pytest.raises(ValueError, match="1000x32x3"):
            spec.points()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="engines"):
            CampaignSpec(engines=())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            CampaignSpec(kind="latency")

    def test_faults_axes(self):
        spec = CampaignSpec(kind="faults", engines=("stream",),
                            fault_kinds=(None, "spoof"))
        names = [p.name for p in spec.points()]
        assert names == ["stream/baseline/s2005", "stream/spoof/s2005"]
        with pytest.raises(KeyError, match="bogus"):
            CampaignSpec(kind="faults", engines=("bogus",)).points()


class TestSharding:
    def test_offset_striding_membership(self):
        coordinator = CampaignCoordinator(SMALL, workers=1, shards=3,
                                          cache_dir=None)
        assert [coordinator.shard_of(i) for i in range(7)] == \
            [0, 1, 2, 0, 1, 2, 0]

    def test_plan_assigns_every_point_once(self, tmp_path):
        coordinator = CampaignCoordinator(SMALL, workers=1, shards=3,
                                          cache_dir=tmp_path / "cache")
        results, shard_items, shard_stats = coordinator.plan()
        assert not results
        names = [item[0] for items in shard_items.values()
                 for item in items]
        assert sorted(names) == [p.name for p in SMALL.points()]
        assert sum(s["misses"] for s in shard_stats.values()) == SMALL.size

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            CampaignCoordinator(SMALL, workers=0)
        with pytest.raises(ValueError):
            CampaignCoordinator(SMALL, workers=1, shards=0)


class TestDeterminism:
    def test_multiworker_output_byte_identical(self, tmp_path):
        one = CampaignCoordinator(SMALL, workers=1,
                                  cache_dir=tmp_path / "c1").run()
        four = CampaignCoordinator(SMALL, workers=4, shards=8,
                                   cache_dir=tmp_path / "c4").run()
        assert one.metrics_json() == four.metrics_json()
        assert four.profile["shards"] == 8

    def test_cached_replay_is_byte_identical(self, tmp_path):
        fresh = CampaignCoordinator(SMALL, workers=1,
                                    cache_dir=tmp_path / "c").run()
        replay = CampaignCoordinator(SMALL, workers=1,
                                     cache_dir=tmp_path / "c").run()
        assert replay.executed == 0
        assert replay.metrics_json() == fresh.metrics_json()

    def test_no_cache_still_deterministic(self):
        one = CampaignCoordinator(SMALL, workers=1, cache_dir=None).run()
        two = CampaignCoordinator(SMALL, workers=1, cache_dir=None).run()
        assert one.metrics_json() == two.metrics_json()
        assert one.profile["cache"]["dir"] is None


class TestMerge:
    def _shards(self, result, shards=4):
        names = sorted(result.points)
        return [
            shard_document(s, [(n, result.points[n])
                               for n in names[s::shards]])
            for s in range(shards)
        ]

    def test_shuffled_shard_arrival_is_byte_identical(self, tmp_path):
        # Regression (shard merge determinism): whatever order shards
        # complete in, the reduced document must be the same bytes.
        result = CampaignCoordinator(SMALL, workers=1,
                                     cache_dir=tmp_path / "c").run()
        docs = self._shards(result)
        reference = to_canonical_json(
            build_document(SMALL, merge_shard_documents(docs)))
        rng = random.Random(2005)
        for _ in range(5):
            rng.shuffle(docs)
            shuffled = to_canonical_json(
                build_document(SMALL, merge_shard_documents(docs)))
            assert shuffled == reference
        assert reference == result.metrics_json()

    def test_duplicate_points_must_agree(self):
        agree = [shard_document(0, [("p", {"x": 1})]),
                 shard_document(1, [("p", {"x": 1})])]
        assert merge_shard_documents(agree) == {"p": {"x": 1}}
        clash = [shard_document(0, [("p", {"x": 1})]),
                 shard_document(1, [("p", {"x": 2})])]
        with pytest.raises(ValueError, match="conflicting"):
            merge_shard_documents(clash)

    def test_stable_floats_canonicalize(self):
        assert stable_floats({"a": 0.1234567891}) == {"a": 0.123457}
        assert stable_floats([-0.0000001]) == [0.0]
        assert stable_floats((1, "x", 2.0)) == [1, "x", 2.0]
        value = {"nested": {"overhead": -0.011364}}
        assert stable_floats(value) == value


class TestResume:
    def test_interrupt_then_resume_executes_only_the_rest(self, tmp_path):
        cache_dir = tmp_path / "cache"
        uninterrupted = CampaignCoordinator(
            SMALL, workers=1, cache_dir=tmp_path / "reference").run()

        # Kill the coordinator after 3 completed points (the progress
        # callback fires after each point is published to the cache).
        done = []

        def killer(line):
            if "[done]" in line:
                done.append(line)
                if len(done) == 3:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            CampaignCoordinator(SMALL, workers=1, cache_dir=cache_dir,
                                progress=killer).run()

        # Rerun: the 3 completed points replay as hits, only the
        # remaining 5 execute, and the merged metrics match an
        # uninterrupted run byte-for-byte.
        resumed = CampaignCoordinator(SMALL, workers=1,
                                      cache_dir=cache_dir).run()
        cache = resumed.profile["cache"]
        assert cache["hits"] == 3
        assert cache["misses"] == SMALL.size - 3
        assert resumed.executed == SMALL.size - 3
        per_shard = cache["per_shard"]
        assert sum(s["hits"] for s in per_shard.values()) == 3
        assert sum(s["misses"] for s in per_shard.values()) == SMALL.size - 3
        assert resumed.metrics_json() == uninterrupted.metrics_json()

    def test_schema_bump_invalidates_cached_points(self, tmp_path):
        point = SMALL.points()[0]
        cache = ResultCache(tmp_path / "c")
        cache.put(point.task_key(schema="repro-campaign-metrics/0"),
                  {"metrics": {"stale": True}})
        assert cache.get(point.task_key()) is None


#: All nine scaling-grid engines over both line sizes, associativities
#: and two latencies: 144 points in 16 baseline groups.
SHARED_BASELINE = CampaignSpec(
    engines=scaling_grid().engines,
    workloads=("mixed", "write-heavy"),
    accesses=(256,),
    cache_sizes=(1024,),
    line_sizes=(16, 32),
    associativities=(1, 2),
    latencies=(20, 80),
)


def _measured(params):
    """One overhead point priced the reference way: ``measure_overhead``
    runs the secured system and its own baseline side by side."""
    result = measure_overhead(
        lambda: make_engine(params["engine"], functional=False),
        make_workload(params["workload"], n=params["accesses"],
                      seed=params["seed"]),
        cache_config=CacheConfig(size=params["cache_size"],
                                 line_size=params["line_size"],
                                 associativity=params["associativity"]),
        mem_config=MemoryConfig(latency=params["latency"]),
    )
    secured, baseline = result.secured, result.baseline
    return stable_floats({
        "accesses": secured.accesses,
        "cycles": secured.cycles,
        "baseline_cycles": baseline.cycles,
        "overhead": round(result.overhead, 6),
        "miss_rate": round(baseline.miss_rate, 6),
        "cache_hits": secured.cache_hits,
        "cache_misses": secured.cache_misses,
        "bus_transactions": secured.bus_transactions,
        "bus_bytes": secured.bus_bytes,
        "bytes_enciphered": secured.bytes_enciphered,
    })


@pytest.fixture
def baseline_runs(monkeypatch):
    """Record every plaintext-baseline system run by its configuration
    (the compiled trace object stands for workload, accesses, seed and
    line size: the worker compiles each once)."""
    import repro.sim.system as system

    worker._baseline.cache_clear()
    keys = []
    run_trace = system.run_trace

    def spy(trace, engine=None, **kwargs):
        if engine is None:
            cache, memory = kwargs["cache_config"], kwargs["mem_config"]
            keys.append((cache.size, cache.line_size, cache.associativity,
                         memory.latency, id(trace)))
        return run_trace(trace, engine=engine, **kwargs)

    monkeypatch.setattr(system, "run_trace", spy)
    yield keys
    worker._baseline.cache_clear()


class TestSharedBaseline:
    @pytest.mark.parametrize("workers,shards", [(1, None), (2, None),
                                                (2, 3)])
    def test_matches_per_point_measure_overhead(self, tmp_path, workers,
                                                shards):
        result = CampaignCoordinator(SHARED_BASELINE, workers=workers,
                                     shards=shards,
                                     cache_dir=tmp_path / "c").run()
        expected = {point.name: _measured(point.params)
                    for point in SHARED_BASELINE.points()}
        assert result.points == expected

    def test_one_baseline_per_key_per_shard(self, baseline_runs):
        points = SHARED_BASELINE.points()
        items = [(p.name, p.kind, dict(p.params), "") for p in points]
        random.Random(2005).shuffle(items)
        _, completed = worker.execute_shard((0, items, None))
        assert len(completed) == len(points)
        groups = {tuple(v for k, v in sorted(p.params.items())
                        if k != "engine") for p in points}
        assert len(groups) == 16
        assert len(baseline_runs) == len(set(baseline_runs)) == 16

    def test_scaling_grid_runs_one_baseline_per_configuration(
            self, baseline_runs):
        spec = scaling_grid()
        result = CampaignCoordinator(spec, workers=1, cache_dir=None).run()
        assert result.executed == spec.size == 1296
        assert len(baseline_runs) == len(set(baseline_runs)) == 144

    def test_execute_point_alone_matches_the_shard(self, tmp_path):
        result = CampaignCoordinator(SHARED_BASELINE, workers=1,
                                     cache_dir=tmp_path / "c").run()
        # Reversed grid order: nearly every call misses the one-group
        # memo, and the first one finds the shard's last group in it.
        for point in reversed(SHARED_BASELINE.points()):
            assert execute_point(point.kind, dict(point.params)) == \
                result.points[point.name]
        worker._baseline.cache_clear()
        point = SHARED_BASELINE.points()[0]
        assert execute_point(point.kind, dict(point.params)) == \
            result.points[point.name]


class TestFaultsCampaign:
    def test_faults_grid_runs_and_summarizes(self, tmp_path):
        spec = CampaignSpec(kind="faults",
                            engines=("stream", "integrity-stream"),
                            fault_kinds=("spoof",))
        result = CampaignCoordinator(spec, workers=1,
                                     cache_dir=tmp_path / "c").run()
        assert result.summary["points"] == 2
        assert result.summary["conforming"] == 2
        detected = result.points["integrity-stream/spoof/s2005"]
        assert detected["verdict"] == "detected"
        silent = result.points["stream/spoof/s2005"]
        assert silent["verdict"] == "silent-corruption"


class TestSeedNamespace:
    def test_task_seed_generalizes_without_breaking_pairs(self):
        assert task_seed("e01", "cost-gap") == task_seed("e01", "cost-gap")
        assert task_seed("campaign", "overhead", "p1") != \
            task_seed("campaign", "overhead", "p2")
        # The multi-part form is the joined two-part form.
        assert task_seed("campaign", "overhead", "p1") == \
            task_seed("campaign", "overhead:p1")


class TestCampaignCli:
    def test_cli_writes_metrics_and_profile(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        rc = main([
            "campaign", "--engines", "stream", "--workloads", "mixed",
            "--latencies", "20", "40",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "2 points" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-campaign-metrics/1"
        assert len(doc["points"]) == 2
        profile = json.loads(
            (tmp_path / "metrics_profile.json").read_text())
        assert profile["workers"] == 1

    def test_cli_spec_file_with_override(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            CampaignSpec(engines=("stream",), latencies=(20,)).to_dict()))
        out = tmp_path / "metrics.json"
        rc = main([
            "campaign", "--spec", str(spec_path),
            "--engines", "stream", "xom",
            "--cache-dir", str(tmp_path / "cache"), "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert sorted(doc["spec"]["engines"]) == ["stream", "xom"]

    def test_cli_rejects_unknown_engine(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "campaign", "--engines", "sealer", "--no-cache",
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_cli_empty_grid_is_a_one_line_error(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"engines": []}))
        rc = main([
            "campaign", "--spec", str(spec_path), "--no-cache",
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_cli_non_object_spec_rejected(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(["stream"]))
        rc = main([
            "campaign", "--spec", str(spec_path), "--no-cache",
            "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ")
        assert "Traceback" not in err

    def test_cli_missing_spec_file_rejected(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "campaign", "--spec", str(tmp_path / "nope.json"),
            "--no-cache", "--out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("campaign: ")
        assert "Traceback" not in err

"""Experiment runner: determinism, caching, and the registry contract."""

import json

import pytest

from repro.runner import (
    ExperimentRunner,
    ResultCache,
    TaskContext,
    task_seed,
    to_canonical_json,
)
from repro.runner.experiments import EXPERIMENTS, get_experiment


class TestTaskModel:
    def test_task_seed_is_stable_and_distinct(self):
        assert task_seed("e01", "cost-gap") == task_seed("e01", "cost-gap")
        assert task_seed("e01", "cost-gap") != task_seed("e01", "protocol")
        assert task_seed("e01", "cost-gap") != task_seed("e02", "cost-gap")

    def test_context_scaling(self):
        assert TaskContext(quick=False).n(4000) == 4000
        assert TaskContext(quick=True).n(4000) == 800
        assert TaskContext(quick=True).n(4000, quick=100) == 100
        assert TaskContext(quick=True).n(600) == 200   # floor

    def test_context_is_frozen(self):
        with pytest.raises(AttributeError):
            TaskContext().quick = True


class TestRegistry:
    def test_all_nineteen_registered(self):
        assert sorted(EXPERIMENTS) == [f"e{i:02d}" for i in range(1, 20)]

    def test_unknown_id_lists_known(self):
        with pytest.raises(KeyError, match="e01"):
            get_experiment("e99")

    def test_experiments_are_well_formed(self):
        for exp_id, exp in EXPERIMENTS.items():
            assert exp.id == exp_id
            assert exp.tasks, exp_id
            assert exp.check is not None, exp_id
            assert exp.render is not None, exp_id


class TestCanonicalJson:
    def test_sorted_and_newline_terminated(self):
        doc = {"b": 1, "a": {"z": [3, 1], "y": None}}
        text = to_canonical_json(doc)
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == doc


class TestRunnerDeterminism:
    EXPS = ["e01"]

    def _metrics(self, workers, tmp_path, tag):
        runner = ExperimentRunner(
            experiments=self.EXPS, workers=workers, quick=True,
            cache_dir=tmp_path / f"cache-{tag}",
        )
        return runner.run()

    def test_serial_and_parallel_are_byte_identical(self, tmp_path):
        serial = self._metrics(1, tmp_path, "serial")
        parallel = self._metrics(2, tmp_path, "parallel")
        assert serial.metrics_json() == parallel.metrics_json()
        assert serial.all_checks_passed

    def test_cache_round_trip_preserves_bytes(self, tmp_path):
        first = self._metrics(1, tmp_path, "shared")
        runner = ExperimentRunner(
            experiments=self.EXPS, workers=1, quick=True,
            cache_dir=tmp_path / "cache-shared",
        )
        second = runner.run()
        assert runner.cache.hits == len(get_experiment("e01").tasks)
        assert runner.cache.misses == 0
        assert second.metrics_json() == first.metrics_json()

    def test_quick_and_full_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        quick = ResultCache.task_key(
            "e01", "cost-gap", TaskContext(quick=True).key())
        full = ResultCache.task_key(
            "e01", "cost-gap", TaskContext(quick=False).key())
        assert quick != full
        cache.put(quick, {"x": 1})
        assert cache.get(quick) == {"x": 1}
        assert cache.get(full) is None

    def test_quick_flag_partitions_even_without_ctx_key(self, tmp_path):
        # Regression: a caller building ctx_key by hand (forgetting the
        # quick flag) must still get distinct keys per scale — the flag is
        # a first-class field of the key, not just part of the context.
        cache = ResultCache(tmp_path / "c")
        bare_ctx = {"seed": 1234}
        quick = ResultCache.task_key("e01", "cost-gap", bare_ctx, quick=True)
        full = ResultCache.task_key("e01", "cost-gap", bare_ctx, quick=False)
        assert quick != full
        cache.put(quick, {"metrics": {"scale": "quick"}})
        assert cache.get(full) is None

    def test_quick_result_never_replayed_into_full_document(self, tmp_path):
        # A quick-suite run must not seed cache entries that a full-scale
        # runner would consume.
        shared = tmp_path / "cache-scale"
        quick_runner = ExperimentRunner(
            experiments=self.EXPS, workers=1, quick=True, cache_dir=shared,
        )
        quick_runner.run()
        full_runner = ExperimentRunner(
            experiments=self.EXPS, workers=1, quick=False, cache_dir=shared,
        )
        for task_name in get_experiment("e01").tasks:
            quick_key = quick_runner._cache_key("e01", task_name)
            full_key = full_runner._cache_key("e01", task_name)
            assert quick_key != full_key
            assert full_runner.cache.get(full_key) is None

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ExperimentRunner(experiments=self.EXPS, workers=0)

    def test_profile_reports_workers_and_walls(self, tmp_path):
        result = self._metrics(1, tmp_path, "profile")
        assert result.profile["workers"] == 1
        assert set(result.profile["task_wall_seconds"]) == {
            f"e01:{name}" for name in get_experiment("e01").tasks
        }
        # Executed tasks record a real (microsecond-resolution) wall.
        assert all(w > 0 for w in
                   result.profile["task_wall_seconds"].values())

    def test_profile_reports_per_experiment_cache_mix(self, tmp_path):
        # First run: e01 fully executed (all misses).  Second run adds
        # e13: e01 replays from cache, e13 executes — the per-experiment
        # section must show that mix, which the suite totals can't.
        shared = tmp_path / "cache-mix"
        first = ExperimentRunner(
            experiments=["e01"], workers=1, quick=True, cache_dir=shared,
        ).run()
        e01_tasks = len(get_experiment("e01").tasks)
        assert first.profile["cache"]["per_experiment"] == {
            "e01": {"hits": 0, "misses": e01_tasks},
        }
        second = ExperimentRunner(
            experiments=["e01", "e13"], workers=1, quick=True,
            cache_dir=shared,
        ).run()
        per_exp = second.profile["cache"]["per_experiment"]
        assert per_exp["e01"] == {"hits": e01_tasks, "misses": 0}
        assert per_exp["e13"]["hits"] == 0
        assert per_exp["e13"]["misses"] == len(get_experiment("e13").tasks)
        # Cached tasks report zero wall; executed tasks a positive one.
        assert all(
            second.profile["task_wall_seconds"][f"e01:{n}"] == 0.0
            for n in get_experiment("e01").tasks
        )
        assert all(
            second.profile["task_wall_seconds"][f"e13:{n}"] > 0
            for n in get_experiment("e13").tasks
        )


class TestObservability:
    def _run(self, tmp_path, tag, workers=1, observe=True):
        return ExperimentRunner(
            experiments=["e01"], workers=workers, quick=True,
            cache_dir=tmp_path / f"cache-{tag}", observe=observe,
        ).run()

    def test_sections_present_and_aggregated(self, tmp_path):
        result = self._run(tmp_path, "obs")
        obs = result.metrics["experiments"]["e01"]["observability"]
        tasks = get_experiment("e01").tasks
        assert set(obs["tasks"]) == set(tasks)
        totals = obs["total"]["totals"]
        assert totals["events"] == sum(
            sec["totals"]["events"] for sec in obs["tasks"].values()
        )
        assert totals["events"] > 0

    def test_serial_and_parallel_observability_byte_identical(self,
                                                              tmp_path):
        serial = self._run(tmp_path, "ser", workers=1)
        parallel = self._run(tmp_path, "par", workers=2)
        assert serial.metrics_json() == parallel.metrics_json()

    def test_observe_off_drops_section_not_metrics(self, tmp_path):
        observed = self._run(tmp_path, "on", observe=True)
        plain = self._run(tmp_path, "off", observe=False)
        doc = json.loads(observed.metrics_json())
        assert "observability" not in plain.metrics["experiments"]["e01"]
        del doc["experiments"]["e01"]["observability"]
        assert doc == json.loads(plain.metrics_json())

    def test_observe_flag_partitions_the_cache(self, tmp_path):
        self._run(tmp_path, "shared", observe=True)
        plain = ExperimentRunner(
            experiments=["e01"], workers=1, quick=True,
            cache_dir=tmp_path / "cache-shared", observe=False,
        )
        plain.run()
        # The observe=True entries must not satisfy observe=False keys.
        assert plain.cache.hits == 0

    def test_schema_is_part_of_the_cache_key(self):
        ctx = TaskContext(quick=True).key()
        assert ResultCache.task_key("e01", "cost-gap", ctx, schema="v/1") \
            != ResultCache.task_key("e01", "cost-gap", ctx, schema="v/2")

    def test_cache_rejects_pre_schema_payloads(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "deadbeef"
        # Hand-write an old-format entry (raw metrics, no "value" wrapper).
        cache.root.mkdir(parents=True)
        (cache.root / f"{key}.json").write_text('{"overhead": 1.5}')
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_cache_rejects_an_entry_spliced_from_another_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("aaaa", {"overhead": 1.5})
        cache.put("bbbb", {"overhead": 2.5})
        # A valid entry copied under another key's filename.
        (cache.root / "bbbb.json").write_bytes(
            (cache.root / "aaaa.json").read_bytes())
        assert cache.get("bbbb") is None
        assert cache.get("aaaa") == {"overhead": 1.5}
        assert (cache.hits, cache.misses) == (1, 1)

    @pytest.mark.parametrize("text", ['["value"]', '"value"'])
    def test_cache_rejects_a_non_object_entry(self, tmp_path, text):
        cache = ResultCache(tmp_path / "c")
        cache.root.mkdir(parents=True)
        (cache.root / "cccc.json").write_text(text)
        assert cache.get("cccc") is None
        assert cache.misses == 1


#: The quick tasks of the experiments that encipher outside an engine
#: (E01's AES-CTR payloads and protocol, E03's 3DES ECB/CBC image, E13's
#: AES-CTR image, E17's AES-CTR keystream).
_CIPHER_TASKS = [(exp_id, task) for exp_id in ("e01", "e03", "e13", "e17")
                 for task in get_experiment(exp_id).tasks]


class TestReferenceCipherOracle:
    """Those experiments take their ciphers from the kernel registry, so
    the ``reference_ciphers`` oracle reaches them: the same task run over
    the algebraic ciphers gives the identical document."""

    @pytest.mark.parametrize("exp_id, task", _CIPHER_TASKS)
    def test_task_matches_reference_ciphers(self, reference_ciphers,
                                            exp_id, task):
        from repro.runner.runner import _execute_task

        spec = (exp_id, task, True, True)
        kernels = _execute_task(spec)[2]
        with reference_ciphers():
            reference = _execute_task(spec)[2]
        assert to_canonical_json(kernels) == to_canonical_json(reference)

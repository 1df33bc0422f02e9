"""The E01-E19 survey experiments under pytest-benchmark, one case each.

    pytest benchmarks/ --benchmark-only -s

Every registry experiment (:mod:`repro.runner.experiments`, shared with
``python -m repro.cli bench``) runs at full scale through
:class:`repro.runner.ExperimentRunner` — serial, uncached, without an
event sink — as one timed round.  The case prints the experiment's
human-readable tables and fails when a claim check about the *shape* of
the paper's result fails.
"""

import pytest

from repro.runner import ExperimentRunner, list_experiments


@pytest.mark.parametrize("experiment_id", list_experiments())
def test_experiment(benchmark, experiment_id):
    runner = ExperimentRunner(experiments=[experiment_id], workers=1,
                              cache_dir=None, render=True, observe=False)
    result = benchmark.pedantic(runner.run, rounds=1, iterations=1)
    if experiment_id in result.renders:
        print(f"\n{result.renders[experiment_id]}\n")
    checks = result.metrics["experiments"][experiment_id]["checks"]
    assert checks["passed"] in (True, None), checks["error"]

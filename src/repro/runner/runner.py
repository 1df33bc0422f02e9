"""Parallel experiment execution with memoization and structured metrics.

:class:`ExperimentRunner` discovers experiments in the declarative
registry (:mod:`repro.runner.experiments`), fans their tasks out over a
``multiprocessing`` pool, memoizes completed tasks on disk, and assembles
two documents:

* **metrics** — deterministic, machine-readable: per-task simulated
  metrics (cycles, bus transactions, cache hit rates, bytes enciphered,
  …) plus the per-experiment claim checks.  Byte-identical regardless of
  worker count or cache state, so it can be committed as a regression
  baseline (``BENCH_metrics.json``).
* **profile** — non-deterministic observability: wall time per task,
  worker count, cache hit/miss counts.

Determinism comes from the task model: each task's seed is derived from
its identity (:func:`repro.runner.base.task_seed`), tasks share no state,
and results are assembled in sorted task order no matter which worker
finished first.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import (CounterSink, EventSink, TeeSink, merge_observability,
                   observability_section, scope)
from .base import Experiment, TaskContext, task_seed
from .cache import ResultCache, stable_floats

__all__ = ["ExperimentRunner", "RunResult", "fork_pool",
           "to_canonical_json"]

METRICS_SCHEMA = "repro-bench-metrics/3"

#: (experiment_id, task_name, quick, observe) — everything a worker needs.
_TaskSpec = Tuple[str, str, bool, bool]


def _execute_task(spec: _TaskSpec, extra: Optional[EventSink] = None
                  ) -> Tuple[str, str, dict, float]:
    """Run one task (the one task body); return its result and wall time.

    Module-level so it pickles by reference; the experiment registry is
    re-resolved inside the worker process.  With ``observe`` set, the task
    runs under an ambient :class:`CounterSink` scope, so every simulator
    event the task causes is aggregated into its ``observability`` block;
    an in-process ``extra`` sink is tee'd beside that counter.
    """
    exp_id, task_name, quick, observe = spec
    from .experiments import get_experiment

    experiment = get_experiment(exp_id)
    ctx = TaskContext(quick=quick, seed=task_seed(exp_id, task_name))
    start = time.perf_counter()
    if observe:
        counter = CounterSink()
        sink = counter if extra is None else TeeSink(counter, extra)
        with scope(sink):
            metrics = experiment.tasks[task_name](ctx)
        observability = observability_section(counter)
    else:
        metrics = experiment.tasks[task_name](ctx)
        observability = None
    wall = time.perf_counter() - start
    # Round-trip through JSON so cached and fresh results are the exact
    # same object shape (tuples -> lists, int keys -> str keys), and
    # canonicalize floats so they are the same bytes (the cache applies
    # the identical normalization on write).
    value = {"metrics": metrics, "observability": observability}
    return exp_id, task_name, stable_floats(json.loads(json.dumps(value))), \
        wall


def experiment_entry(experiment: Experiment,
                     values: Dict[str, dict]) -> dict:
    """One experiment's metrics-document entry from its task values.

    ``values`` maps task name to the canonical value :func:`_execute_task`
    returns (or the cache replays); checks run on the canonical metrics.
    """
    tasks = {name: values[name]["metrics"] for name in sorted(values)}
    doc = {
        "title": experiment.title,
        "section": experiment.section,
        "checks": experiment.checks_passed(tasks),
        "tasks": tasks,
    }
    task_obs = {
        name: values[name]["observability"]
        for name in sorted(values)
        if values[name].get("observability") is not None
    }
    if task_obs:
        doc["observability"] = {
            "tasks": task_obs,
            "total": merge_observability(task_obs.values()),
        }
    return doc


def run_entry(experiment: Experiment, quick: bool,
              extra: Optional[EventSink] = None) -> dict:
    """Run one experiment's tasks in-process, observed, and build its
    entry: the one an uncached serial runner writes for ``quick``."""
    values = {
        name: _execute_task((experiment.id, name, quick, True), extra)[2]
        for name in sorted(experiment.tasks)
    }
    return experiment_entry(experiment, values)


def to_canonical_json(document: dict) -> str:
    """Stable serialized form: sorted keys, fixed indent, one trailing \\n."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def fork_pool(workers: int):
    """A fork-context process pool with a pre-warmed kernel registry.

    Fork keeps ``sys.path`` (and everything already imported) intact in
    the children; expanding every engine's cipher schedules first means
    they inherit a warm kernel registry instead of each re-deriving the
    same key schedules.  Shared by the experiment runner and the
    campaign coordinator.
    """
    from ..core.registry import warm_kernel_registry
    warm_kernel_registry()
    return multiprocessing.get_context("fork").Pool(processes=workers)


@dataclass
class RunResult:
    """Everything one runner invocation produced."""

    metrics: dict                      # deterministic document
    profile: dict                      # wall times, cache stats
    renders: Dict[str, str] = field(default_factory=dict)

    @property
    def all_checks_passed(self) -> bool:
        return all(
            exp["checks"]["passed"] in (True, None)
            for exp in self.metrics["experiments"].values()
        )

    def metrics_json(self) -> str:
        return to_canonical_json(self.metrics)


class ExperimentRunner:
    """Run a set of registry experiments, possibly in parallel.

    Parameters
    ----------
    experiments:
        Experiment ids to run (default: every registered experiment).
    workers:
        Process count; 1 runs everything in-process (the reference path —
        any other worker count must produce byte-identical metrics).
    quick:
        Scaled-down traces for sub-minute full-suite runs.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    render:
        Also produce each experiment's human-readable tables.
    observe:
        Attach a per-task :class:`repro.obs.CounterSink` and publish the
        aggregated event counters as the metrics document's
        ``observability`` sections (default on; the counters are
        deterministic, so they belong in the committed document).
    progress:
        Optional callable receiving one line per completed task.
    """

    def __init__(
        self,
        experiments: Optional[Sequence[str]] = None,
        workers: int = 1,
        quick: bool = False,
        cache_dir: Optional[Path] = Path(".bench_cache"),
        render: bool = False,
        observe: bool = True,
        progress: Optional[Callable[[str], None]] = None,
    ):
        from .experiments import EXPERIMENTS, get_experiment

        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        ids = sorted(experiments) if experiments else sorted(EXPERIMENTS)
        self.experiments: List[Experiment] = [get_experiment(i) for i in ids]
        self.workers = workers
        self.quick = quick
        self.cache = ResultCache(Path(cache_dir)) if cache_dir else None
        self.render = render
        self.observe = observe
        self._progress = progress or (lambda line: None)

    # -- execution ---------------------------------------------------------

    def _task_specs(self) -> List[_TaskSpec]:
        return [
            (exp.id, task_name, self.quick, self.observe)
            for exp in self.experiments
            for task_name in sorted(exp.tasks)
        ]

    def _cache_key(self, exp_id: str, task_name: str) -> str:
        ctx = TaskContext(quick=self.quick, seed=task_seed(exp_id, task_name))
        # The schema and the observe flag are part of the key: a document
        # shape change or a counters-on/off change must not replay stale
        # entries of the other shape.  The quick flag is passed explicitly
        # so scaled-down results can never leak into full-scale documents.
        return ResultCache.task_key(
            exp_id, task_name, ctx.key(),
            schema=f"{METRICS_SCHEMA};observe={self.observe}",
            quick=self.quick,
        )

    def run(self) -> RunResult:
        suite_start = time.perf_counter()
        results: Dict[str, Dict[str, dict]] = {
            exp.id: {} for exp in self.experiments
        }
        walls: Dict[str, float] = {}

        pending: List[_TaskSpec] = []
        cache_stats: Dict[str, Dict[str, int]] = {
            exp.id: {"hits": 0, "misses": 0} for exp in self.experiments
        }
        for spec in self._task_specs():
            exp_id, task_name = spec[0], spec[1]
            cached = None
            if self.cache is not None:
                cached = self.cache.get(self._cache_key(exp_id, task_name))
            if cached is not None and "metrics" in cached:
                cache_stats[exp_id]["hits"] += 1
                results[exp_id][task_name] = cached
                walls[f"{exp_id}:{task_name}"] = 0.0
                self._progress(f"{exp_id}:{task_name}  [cached]")
            else:
                if self.cache is not None:
                    cache_stats[exp_id]["misses"] += 1
                pending.append(spec)

        for exp_id, task_name, value, wall in self._execute(pending):
            results[exp_id][task_name] = value
            # Microsecond resolution: sub-millisecond tasks (e.g. the
            # kernel microbench summaries) must not profile as 0.0.
            walls[f"{exp_id}:{task_name}"] = round(wall, 6)
            if self.cache is not None:
                self.cache.put(self._cache_key(exp_id, task_name), value)
            self._progress(f"{exp_id}:{task_name}  [{wall:.2f}s]")

        return self._assemble(results, walls, cache_stats,
                              time.perf_counter() - suite_start)

    def _execute(self, pending: List[_TaskSpec]):
        """Yield completed (exp_id, task, metrics, wall) for pending tasks."""
        if not pending:
            return
        if self.workers == 1:
            for spec in pending:
                yield _execute_task(spec)
            return
        # chunksize 1 keeps long tasks load-balanced across the pool.
        with fork_pool(self.workers) as pool:
            for item in pool.imap_unordered(_execute_task, pending,
                                            chunksize=1):
                yield item

    # -- assembly ----------------------------------------------------------

    def _assemble(self, results, walls, cache_stats, total_wall) -> RunResult:
        experiments_doc = {}
        published: Dict[str, object] = {}
        renders: Dict[str, str] = {}
        for exp in self.experiments:
            doc = experiment_entry(exp, results[exp.id])
            experiments_doc[exp.id] = doc
            if exp.publish is not None:
                key, value = exp.publish(doc["tasks"])
                published[key] = json.loads(json.dumps(value))
            if self.render and exp.render is not None:
                renders[exp.id] = exp.render(doc["tasks"])

        metrics = {
            "schema": METRICS_SCHEMA,
            "quick": self.quick,
            "experiments": experiments_doc,
        }
        metrics.update(sorted(published.items()))
        profile = {
            "workers": self.workers,
            "wall_seconds": round(total_wall, 3),
            "cache": {
                "hits": self.cache.hits if self.cache else 0,
                "misses": self.cache.misses if self.cache else 0,
                "dir": str(self.cache.root) if self.cache else None,
                "per_experiment": {
                    exp_id: dict(stats)
                    for exp_id, stats in sorted(cache_stats.items())
                },
            },
            "task_wall_seconds": dict(sorted(walls.items())),
        }
        return RunResult(metrics=metrics, profile=profile, renders=renders)

"""Campaign worker: execute design points, one shard per process.

The worker side of the coordinator/worker split.  :func:`execute_point`
turns one :class:`~repro.campaign.spec.CampaignPoint` into its metrics
dict; :func:`execute_shard` walks a whole shard — it is both the
``multiprocessing`` entry point and the coordinator's in-process loop —
publishing each completed point into the shared on-disk
:class:`~repro.runner.cache.ResultCache` as it lands (atomic rename
makes concurrent shard writers safe), so an interrupted sweep loses at
most the points in flight.

Per-process memoization: workload traces are built and compiled once per
``(workload, accesses, seed, line_size)`` and reused across every design
point that shares them.  The plaintext baseline an overhead point is
priced against does not depend on the engine, so a shard runs its points
grouped by baseline key (the params minus ``engine``), and each overhead
group is one lazy :func:`repro.analysis.price_engines` iteration: one
baseline per group, and each point still lands (and is published) before
the next one of its group runs.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..runner.cache import ResultCache, stable_floats

__all__ = ["execute_point", "execute_shard"]

#: One shard handed to a worker process: its id, the pending points as
#: ``(name, kind, params, task_key)`` tuples, and the cache directory
#: (``None`` disables publication).
ShardPayload = Tuple[int, List[Tuple[str, str, dict, str]], Optional[str]]


@lru_cache(maxsize=64)
def _compiled_trace(workload: str, accesses: int, seed: int,
                    line_size: int):
    """Build + compile one workload trace, memoized per process."""
    from ..sim.fastpath import compile_trace
    from ..traces import make_workload

    trace = make_workload(workload, n=accesses, seed=seed)
    return compile_trace(trace, line_size)


def _baseline_key(params: Dict[str, object]) -> Tuple:
    """What a point's plaintext baseline depends on: its params minus
    ``engine`` (workload, accesses, seed and the cache/memory geometry)."""
    return tuple(sorted(
        (name, value) for name, value in params.items() if name != "engine"
    ))


def _system_config(params: Dict[str, object]) -> Dict[str, object]:
    from ..sim import CacheConfig, MemoryConfig

    return {
        "cache_config": CacheConfig(
            size=int(params["cache_size"]),
            line_size=int(params["line_size"]),
            associativity=int(params["associativity"]),
        ),
        "mem_config": MemoryConfig(latency=int(params["latency"])),
    }


def _trace(params: Dict[str, object]):
    return _compiled_trace(
        str(params["workload"]), int(params["accesses"]),
        int(params["seed"]), int(params["line_size"]),
    )


def _overhead_points(group: List[Dict[str, object]]) -> Iterator[dict]:
    """Price one baseline-key group of overhead points, lazily."""
    from ..analysis import price_engines
    from ..core.registry import make_engine

    params = group[0]
    for result in price_engines(
            [lambda p=p: make_engine(str(p["engine"]), functional=False)
             for p in group],
            _trace(params), **_system_config(params)):
        secured, baseline = result.secured, result.baseline
        yield {
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
        }


def _faults_point(params: Dict[str, object]) -> Dict[str, object]:
    from ..faults import run_campaign

    fault = params["fault"]
    result = run_campaign(
        str(params["label"]), None if fault is None else str(fault),
        seed=int(params["seed"]), quick=True,
    )
    return {
        "engine": result.engine_name,
        "fault": result.kind,
        "verdict": result.verdict,
        "conforms": result.conforms,
        "expected_detect": result.expected_detect,
        "injected": result.injected,
        "detected": result.detected,
        "corrupted": result.corrupted,
        "checks": result.checks,
        "tampers": result.tampers,
    }


#: Point kind -> a runner of one group of points sharing a baseline key,
#: yielding each point's metrics in order as it completes.
_POINT_FAMILIES = {
    "overhead": _overhead_points,
    "faults": lambda group: map(_faults_point, group),
}


def _execute_group(kind: str, group: List[Dict[str, object]]):
    """Each point's canonical JSON-ready metrics, lazily and in order.

    The metrics pass through :func:`stable_floats` *before* they are
    returned or cached, so a freshly-executed point and its cache replay
    are the same bytes — the invariant the deterministic merge relies
    on.
    """
    try:
        family = _POINT_FAMILIES[kind]
    except KeyError:
        raise KeyError(
            f"unknown campaign point kind {kind!r}; "
            f"known: {', '.join(sorted(_POINT_FAMILIES))}"
        ) from None
    return map(stable_floats, family(group))


def execute_point(kind: str, params: Dict[str, object]) -> Dict[str, object]:
    """Run one design point (a one-point group); returns its metrics."""
    [metrics] = _execute_group(kind, [params])
    return metrics


def _grouped(items: List[Tuple[str, str, dict, str]]):
    """A shard's points in groups sharing a :func:`_baseline_key`, in
    order of each group's first point (a stable group-by: points keep
    their order within a group).  Faults points never share a key, so
    they keep grid order."""
    groups: Dict[Tuple, List] = {}
    for item in items:
        groups.setdefault((item[1], _baseline_key(item[2])), []).append(item)
    return groups.values()


def execute_shard(payload: ShardPayload,
                  progress: Optional[Callable[[str], None]] = None):
    """Execute every pending point of a shard, grouped by baseline.

    The process-pool entry point, and the in-process path's loop too.
    Returns ``(shard_id, [(name, metrics), ...])`` in execution order.
    Each point is published to the on-disk cache immediately after it
    completes, and only then reported to ``progress`` as
    ``"<name>  [done]"``; the coordinator never re-collects cached points
    from the return value, so a worker killed mid-shard simply leaves its
    completed prefix behind for the next run to resume from.
    """
    shard_id, items, cache_dir = payload
    cache = ResultCache(Path(cache_dir)) if cache_dir else None
    completed = []
    for group in _grouped(items):
        kind = group[0][1]
        points = _execute_group(kind, [params for _, _, params, _ in group])
        for (name, _, _, key), metrics in zip(group, points):
            if cache is not None:
                cache.put(key, {"metrics": metrics})
            completed.append((name, metrics))
            if progress is not None:
                progress(f"{name}  [done]")
    return shard_id, completed

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
point that shares them — the same compile-once discipline
``overhead_grid`` applies within one experiment, extended across a
shard.  The plaintext baseline an overhead point is priced against does
not depend on the engine, so a shard runs its overhead points grouped by
baseline key (the params minus ``engine``) and each group runs its
baseline once; only the current group's baseline is kept.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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


@lru_cache(maxsize=1)
def _baseline(key: Tuple):
    """The plaintext-baseline report for one :func:`_baseline_key`.

    Holds only the most recent key: :func:`execute_shard` runs a shard's
    overhead points grouped by key, so each group pays for one baseline
    run and the memo never outgrows the group in hand.
    """
    from ..sim.system import run_trace

    params = dict(key)
    return run_trace(_trace(params), engine=None, **_system_config(params))


def _overhead_point(params: Dict[str, object]) -> Dict[str, object]:
    from ..core.registry import make_engine
    from ..sim.system import run_trace

    secured = run_trace(
        _trace(params),
        engine=make_engine(str(params["engine"]), functional=False),
        **_system_config(params),
    )
    baseline = _baseline(_baseline_key(params))
    return {
        "accesses": secured.accesses,
        "cycles": secured.cycles,
        "baseline_cycles": baseline.cycles,
        "overhead": round(secured.overhead_vs(baseline), 6),
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


_POINT_FAMILIES = {
    "overhead": _overhead_point,
    "faults": _faults_point,
}


def execute_point(kind: str, params: Dict[str, object]) -> Dict[str, object]:
    """Run one design point; returns canonical JSON-ready metrics.

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
    return stable_floats(family(params))


def _grouped(items: List[Tuple[str, str, dict, str]]):
    """A shard's points, each moved up beside the first point sharing its
    :func:`_baseline_key` (a stable group-by: points keep their order
    within a group).  Faults points never share a key, so they keep grid
    order."""
    groups: Dict[Tuple, List] = {}
    for item in items:
        groups.setdefault(_baseline_key(item[2]), []).append(item)
    return [item for group in groups.values() for item in group]


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
    for name, kind, params, key in _grouped(items):
        metrics = execute_point(kind, params)
        if cache is not None:
            cache.put(key, {"metrics": metrics})
        completed.append((name, metrics))
        if progress is not None:
            progress(f"{name}  [done]")
    return shard_id, completed

"""Campaign coordinator: shard the key space, farm it out, merge, resume.

The DES-cracker sharding model applied to design-space sweeps: the
expanded grid is a solution space, and shard ``i`` of ``K`` takes the
points at indices ``i, i+K, i+2K, ...`` (offset striding).  Membership
depends only on the grid and the shard count — never on cache state or
scheduling — so a re-run after an interrupt partitions identically and
each shard finds its own completed prefix already in the cache.

Execution is resume-first: before anything runs, every point's
content-addressed key is probed against the on-disk
:class:`~repro.runner.cache.ResultCache`; only the misses are handed to
workers (in-process for ``workers=1`` — the reference path — or a
fork pool otherwise), and each completes to disk point-by-point.  Kill
the coordinator mid-sweep and rerun: completed points replay as cache
hits and only the remainder executes.

Results from any mix of cache replay and live execution meet in
:mod:`repro.campaign.merge`, whose sorted-key reduction makes the final
document byte-identical for any worker count, shard count, or
completion order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..runner.cache import ResultCache
from ..runner.runner import fork_pool, to_canonical_json
from .merge import build_document
from .spec import CAMPAIGN_SCHEMA, CampaignSpec
from .worker import execute_shard

__all__ = ["CampaignCoordinator", "CampaignResult"]


@dataclass(frozen=True)
class CampaignResult:
    """Everything one campaign run produced.

    ``metrics`` is the deterministic document (commit-safe bytes via
    :meth:`metrics_json`); ``profile`` is the non-deterministic side —
    wall time, throughput, per-shard cache accounting.
    """

    spec: CampaignSpec
    metrics: dict
    profile: dict

    @property
    def points(self) -> Dict[str, dict]:
        return self.metrics["points"]

    @property
    def summary(self) -> dict:
        return self.metrics["summary"]

    @property
    def executed(self) -> int:
        return self.profile["executed"]

    @property
    def cached(self) -> int:
        return self.profile["cache"]["hits"]

    @property
    def tasks_per_second(self) -> float:
        return self.profile["tasks_per_second"]

    def metrics_json(self) -> str:
        return to_canonical_json(self.metrics)


class CampaignCoordinator:
    """Run one :class:`CampaignSpec` over a sharded worker pool.

    Parameters
    ----------
    spec:
        The design-space grid to sweep.
    workers:
        Process count; 1 executes in-process (the reference path — any
        other count must produce byte-identical metrics).
    shards:
        Key-space partitions (default: ``workers``).  More shards than
        workers is fine — the pool load-balances whole shards.
    cache_dir:
        On-disk result cache shared by every worker; ``None`` disables
        caching (and with it resume).
    progress:
        Optional callable receiving one line per completed point.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        workers: int = 1,
        shards: Optional[int] = None,
        cache_dir: Optional[Path] = Path(".bench_campaign_cache"),
        progress: Optional[Callable[[str], None]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers
        self.shards = shards if shards is not None else workers
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        self.cache = ResultCache(Path(cache_dir)) if cache_dir else None
        self._progress = progress or (lambda line: None)

    # -- sharding ----------------------------------------------------------

    def shard_of(self, index: int) -> int:
        """Offset-striding shard membership for grid index ``index``."""
        return index % self.shards

    def plan(self):
        """Expand the grid and probe the cache.

        Returns ``(results, shard_items, shard_stats)``: the cache-hit
        metrics by point name, the pending work per shard (as the tuples
        :func:`repro.campaign.worker.execute_shard` expects), and the
        per-shard hit/miss accounting.
        """
        points = self.spec.points()
        results: Dict[str, dict] = {}
        shard_items: Dict[int, List] = {s: [] for s in range(self.shards)}
        shard_stats = {
            s: {"hits": 0, "misses": 0} for s in range(self.shards)
        }
        for index, point in enumerate(points):
            shard = self.shard_of(index)
            key = point.task_key(CAMPAIGN_SCHEMA)
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None and "metrics" in cached:
                shard_stats[shard]["hits"] += 1
                results[point.name] = cached["metrics"]
                self._progress(f"{point.name}  [cached]")
            else:
                shard_stats[shard]["misses"] += 1
                shard_items[shard].append(
                    (point.name, point.kind, dict(point.params), key)
                )
        return results, shard_items, shard_stats

    # -- execution ---------------------------------------------------------

    def run(self) -> CampaignResult:
        start = time.perf_counter()
        results, shard_items, shard_stats = self.plan()
        pending = {s: items for s, items in shard_items.items() if items}
        executed = 0

        for shard_id, completed in self._execute(pending):
            for name, metrics in completed:
                results[name] = metrics
                executed += 1
            self._progress(
                f"shard {shard_id}: {len(completed)} points done"
            )

        wall = time.perf_counter() - start
        metrics = build_document(self.spec, results)
        total = len(results)
        profile = {
            "workers": self.workers,
            "shards": self.shards,
            "points": total,
            "executed": executed,
            "wall_seconds": round(wall, 3),
            "tasks_per_second": round(total / wall, 2) if wall else 0.0,
            "cache": {
                "hits": self.cache.hits if self.cache else 0,
                "misses": self.cache.misses if self.cache else 0,
                "dir": str(self.cache.root) if self.cache else None,
                "per_shard": {
                    str(shard): dict(stats)
                    for shard, stats in sorted(shard_stats.items())
                },
            },
        }
        return CampaignResult(spec=self.spec, metrics=metrics,
                              profile=profile)

    def _execute(self, pending: Dict[int, List]):
        """Yield ``(shard_id, [(name, metrics), ...])`` per shard."""
        if not pending:
            return
        cache_dir = str(self.cache.root) if self.cache is not None else None
        payloads = [
            (shard_id, pending[shard_id], cache_dir)
            for shard_id in sorted(pending)
        ]
        if self.workers == 1:
            # In-process reference path: the pool workers' own shard
            # loop, reporting each point once it is published, so an
            # interrupt loses at most one point.
            for payload in payloads:
                yield execute_shard(payload, self._progress)
            return
        with fork_pool(self.workers) as pool:
            for item in pool.imap_unordered(execute_shard, payloads,
                                            chunksize=1):
                yield item

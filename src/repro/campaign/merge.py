"""Mergeable campaign metrics: shard documents and their reduction.

Each worker (or cache replay) contributes point results in whatever
order it finished them; this module folds them into one canonical
metrics document.  Determinism rules:

* points are keyed by name and always emitted in sorted-name order;
* aggregates are reduced over that sorted order, never arrival order
  (float addition is not associative — summing in completion order
  would make K-worker output drift from the single-process run);
* every float passes through :func:`repro.runner.cache.stable_floats`.

Together with the workers' canonical point metrics this makes the
document byte-identical no matter how the key space was sharded, how
many workers ran, or which shards completed first.

The coordinator hands its one name->metrics map to :func:`build_document`;
:func:`merge_shard_documents` folds shard documents produced apart.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..runner.cache import stable_floats
from .spec import CAMPAIGN_SCHEMA, CampaignSpec

__all__ = ["shard_document", "merge_shard_documents", "build_document",
           "summarize"]


def shard_document(shard_id: int,
                   results: Iterable[Tuple[str, dict]]) -> dict:
    """One shard's contribution: its id and the points it completed."""
    return {
        "shard": shard_id,
        "points": {name: stable_floats(metrics)
                   for name, metrics in results},
    }


def merge_shard_documents(shards: Iterable[dict]) -> Dict[str, dict]:
    """Fold shard documents into one name->metrics map, order-blind.

    A point reported by two shards must carry identical metrics (points
    are pure functions of their parameters); a mismatch means
    non-deterministic execution and is an error, not a race to resolve
    by arrival order.
    """
    merged: Dict[str, dict] = {}
    for shard in shards:
        for name, metrics in shard["points"].items():
            canonical = stable_floats(metrics)
            if name in merged and merged[name] != canonical:
                raise ValueError(
                    f"conflicting results for campaign point {name!r}: "
                    f"{merged[name]!r} != {canonical!r}"
                )
            merged[name] = canonical
    return {name: merged[name] for name in sorted(merged)}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _overhead_summary(points: Dict[str, dict]) -> dict:
    by_engine: Dict[str, List[dict]] = {}
    by_workload: Dict[str, List[dict]] = {}
    for name in sorted(points):
        engine, workload = name.split("/", 2)[:2]
        by_engine.setdefault(engine, []).append(points[name])
        by_workload.setdefault(workload, []).append(points[name])

    def reduce(groups: Dict[str, List[dict]]) -> dict:
        return {
            key: {
                "points": len(group),
                "mean_overhead": _mean([p["overhead"] for p in group]),
                "max_overhead": max(p["overhead"] for p in group),
                "mean_miss_rate": _mean([p["miss_rate"] for p in group]),
            }
            for key, group in sorted(groups.items())
        }

    return {
        "points": len(points),
        "by_engine": reduce(by_engine),
        "by_workload": reduce(by_workload),
    }


def _faults_summary(points: Dict[str, dict]) -> dict:
    verdicts: Dict[str, int] = {}
    conforming = 0
    for name in sorted(points):
        point = points[name]
        verdicts[point["verdict"]] = verdicts.get(point["verdict"], 0) + 1
        conforming += bool(point["conforms"])
    return {
        "points": len(points),
        "conforming": conforming,
        "verdicts": dict(sorted(verdicts.items())),
    }


def summarize(kind: str, points: Dict[str, dict]) -> dict:
    """Aggregate the merged points (reduced in sorted-name order)."""
    summary = (_faults_summary if kind == "faults"
               else _overhead_summary)(points)
    return stable_floats(summary)


def build_document(spec: CampaignSpec, points: Dict[str, dict]) -> dict:
    """The complete campaign metrics document (deterministic bytes)."""
    ordered = {name: stable_floats(points[name]) for name in sorted(points)}
    return {
        "schema": CAMPAIGN_SCHEMA,
        "spec": spec.to_dict(),
        "points": ordered,
        "summary": summarize(spec.kind, ordered),
    }

"""E04 — §2.2: the smaller-than-block write penalty.

Paper claim reproduced: "The writing operation of a data smaller than the
ciphered block size is penalizing because implies the following steps:
read the block from memory, decipher it, modify the corresponding sequence
into the block, re-cipher it, write it back in memory."

Sweeps store size below and at the cipher block size on a
write-through/no-allocate system (where stores hit memory directly) and
reports the per-store cost inflation, plus the contrast cases: a
byte-granular engine (DS5002FP) and the write-back cache that absorbs the
problem.
"""

from __future__ import annotations

from ...analysis import format_table
from ...sim import CacheConfig, MemoryConfig, WritePolicy
from ...traces import iter_write_burst
from ..base import Experiment, TaskContext
from .common import overhead_metrics, price

N_STORES = 300
WT_CACHE = CacheConfig(
    size=1024, line_size=32, associativity=2,
    write_policy=WritePolicy.WRITE_THROUGH, write_allocate=False,
)
WB_CACHE = CacheConfig(size=1024, line_size=32, associativity=2)
MEM = MemoryConfig(size=1 << 20, latency=40)


def _sweep(ctx: TaskContext, engine_name: str) -> dict:
    sizes = (4, 8, 16) if ctx.quick else (1, 2, 4, 8, 16)
    n_stores = ctx.n(N_STORES, quick=N_STORES)  # cheap: keep full scale
    rows = []
    for size in sizes:
        trace = list(iter_write_burst(n_stores, base=0, write_size=size,
                                      stride=64))
        [result] = price(
            trace, engine_name,
            cache_config=WT_CACHE, mem_config=MEM, write_buffer=False,
        )
        rows.append({
            "size": size,
            "cycles_per_store": round(result.secured.cycles / n_stores, 3),
            **overhead_metrics(result),
        })
    return {"n_stores": n_stores, "rows": rows}


def task_ds5240(ctx: TaskContext) -> dict:
    return _sweep(ctx, "ds5240")


def task_xom(ctx: TaskContext) -> dict:
    return _sweep(ctx, "xom")


def task_ds5002fp(ctx: TaskContext) -> dict:
    return _sweep(ctx, "ds5002fp")


def task_write_back_absorbs(ctx: TaskContext) -> dict:
    """With write-allocate + write-back, the line fetch doubles as the
    'read the block' step and the penalty folds into normal miss traffic."""
    trace = list(iter_write_burst(N_STORES, base=0, write_size=4, stride=64))
    [result] = price(trace, "ds5240", cache_config=WB_CACHE, mem_config=MEM)
    return overhead_metrics(result)


_LABELS = {
    "ds5240-sweep": "ds5240 (8B block)",
    "xom-sweep": "xom (16B block)",
    "ds5002fp-sweep": "ds5002fp (1B block)",
}


def render(results: dict) -> str:
    parts = []
    for task, label in _LABELS.items():
        rows = results[task]["rows"]
        parts.append(format_table(
            ["store size (B)", "overhead", "RMW ops", "cycles/store"],
            [[r["size"], f"{r['overhead'] * 100:+.0f}%",
              r["rmw_operations"], f"{r['cycles_per_store']:.0f}"]
             for r in rows],
            title=f"E04: sub-block write penalty — {label} (survey §2.2)",
        ))
    wb = results["write-back-absorbs"]
    parts.append(format_table(
        ["metric", "value"],
        [["RMW ops with write-back cache", wb["rmw_operations"]]],
        title="E04: a write-back cache absorbs the penalty",
    ))
    return "\n\n".join(parts)


def check(results: dict) -> None:
    n_stores = results["ds5240-sweep"]["n_stores"]
    ds5240 = {r["size"]: r for r in results["ds5240-sweep"]["rows"]}
    xom = {r["size"]: r for r in results["xom-sweep"]["rows"]}
    byte_engine = results["ds5002fp-sweep"]["rows"]

    # Sub-block stores trigger the five-step RMW; block-aligned ones don't.
    assert ds5240[4]["rmw_operations"] == n_stores
    assert ds5240[8]["rmw_operations"] == 0
    assert xom[8]["rmw_operations"] == n_stores
    assert xom[16]["rmw_operations"] == 0
    # The RMW inflates the per-store cost substantially.
    assert ds5240[4]["cycles_per_store"] > 1.7 * ds5240[8]["cycles_per_store"]
    # A byte-granular cipher never pays it.
    assert all(r["rmw_operations"] == 0 for r in byte_engine)
    # The write-back cache absorbs it entirely.
    assert results["write-back-absorbs"]["rmw_operations"] == 0


EXPERIMENT = Experiment(
    id="e04",
    title="Sub-block write penalty (read-modify-write)",
    section="§2.2",
    tasks={
        "ds5240-sweep": task_ds5240,
        "xom-sweep": task_xom,
        "ds5002fp-sweep": task_ds5002fp,
        "write-back-absorbs": task_write_back_absorbs,
    },
    render=render,
    check=check,
)

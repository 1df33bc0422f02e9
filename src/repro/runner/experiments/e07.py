"""E07 — Figure 4 / §3: VLSI Technology's page-wise secure DMA.

Paper claims reproduced:
* "data transfers to and from the external memory are done page-by-page
  ... This system allows the use of block cipher techniques (robustness)"
  — the page transfer amortizes a heavyweight 3DES-CBC over many accesses;
* the implied trade: large pages win when locality is high (few faults,
  on-chip hits are nearly free) and lose when access is scattered
  (fault cost scales with the page size).
"""

from __future__ import annotations

from ...analysis import (ascii_plot, format_percent, format_table,
                         price_engines)
from ...core.registry import make_engine
from ...sim import CacheConfig, MemoryConfig
from ...traces import make_workload
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, overhead_metrics, price

CACHE = CacheConfig(size=1024, line_size=32, associativity=2)
MEM = MemoryConfig(size=1 << 21, latency=40)
BUFFER_BYTES = 8192  # constant on-chip budget across the sweep


def _sweep_page_size(ctx: TaskContext, workload: str) -> dict:
    page_sizes = (256, 1024, 4096) if ctx.quick \
        else (256, 512, 1024, 2048, 4096)
    trace = make_workload(workload, n=ctx.n(N_ACCESSES))
    engines = [make_engine("vlsi", functional=False, page_size=page_size,
                           buffer_pages=max(1, BUFFER_BYTES // page_size))
               for page_size in page_sizes]
    results = price_engines(
        [lambda e=engine: e for engine in engines], trace, workload,
        cache_config=CACHE, mem_config=MEM,
    )
    return {"rows": [{
        "page_size": page_size,
        "faults": engine.page_faults,
        "writebacks": engine.page_writebacks,
        **overhead_metrics(result),
    } for page_size, engine, result in zip(page_sizes, engines, results)]}


def task_sequential(ctx: TaskContext) -> dict:
    return _sweep_page_size(ctx, "sequential")


def task_data_random(ctx: TaskContext) -> dict:
    return _sweep_page_size(ctx, "data-random")


def task_locality(ctx: TaskContext) -> dict:
    """With strong locality the page buffer behaves like an L2: most
    accesses never reach the bus at all."""
    trace = make_workload("sequential", n=ctx.n(N_ACCESSES))
    [result] = price(trace, ("vlsi", {"page_size": 2048, "buffer_pages": 4}),
                     cache_config=CACHE, mem_config=MEM)
    return overhead_metrics(result)


def render(results: dict) -> str:
    sweeps = {
        "sequential": results["sequential-sweep"]["rows"],
        "data-random": results["data-random-sweep"]["rows"],
    }
    parts = []
    for workload, rows in sweeps.items():
        parts.append(format_table(
            ["page size", "overhead", "page faults", "page writebacks"],
            [[r["page_size"], format_percent(r["overhead"]), r["faults"],
              r["writebacks"]] for r in rows],
            title=f"E07: secure-DMA page-size sweep — {workload} "
                  "(survey Fig. 4)",
        ))
    parts.append(ascii_plot(
        {name: [(r["page_size"], 100 * r["overhead"]) for r in rows]
         for name, rows in sweeps.items()},
        title="E07 figure: overhead (%) vs page size",
        x_label="page size (bytes)", y_label="%",
    ))
    parts.append(format_table(
        ["metric", "value"],
        [["sequential overhead, 2048B pages x4",
          format_percent(results["locality"]["overhead"])]],
        title="E07: locality makes secure DMA competitive",
    ))
    return "\n\n".join(parts)


def check(results: dict) -> None:
    seq = {r["page_size"]: r for r in results["sequential-sweep"]["rows"]}
    rnd = {r["page_size"]: r for r in results["data-random-sweep"]["rows"]}
    # High locality: bigger pages mean fewer faults.
    assert seq[4096]["faults"] < seq[256]["faults"]
    # Scattered access: every fault drags a whole page across the bus, so
    # the random workload suffers far more at any page size.
    for size in (256, 1024, 4096):
        assert rnd[size]["overhead"] > 3 * max(seq[size]["overhead"], 0.01)
    # And for the random workload, growing pages past the sweet spot hurts.
    assert rnd[4096]["overhead"] > rnd[256]["overhead"]
    # Bulk 3DES per page amortized over 64 lines: modest overhead.
    assert results["locality"]["overhead"] < 3.0


EXPERIMENT = Experiment(
    id="e07",
    title="VLSI Technology page-wise secure DMA",
    section="§3 / Fig. 4",
    tasks={
        "sequential-sweep": task_sequential,
        "data-random-sweep": task_data_random,
        "locality": task_locality,
    },
    render=render,
    check=check,
)

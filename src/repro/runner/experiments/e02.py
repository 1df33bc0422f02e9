"""E02 — Figure 2a/2b / §2.2: stream vs block cipher on the miss path.

Paper claims reproduced:
* "stream cipher seems to be more suitable in term of performance: the key
  stream generation can be parallelised with external data fetch";
* "the shortcoming of block cipher cryptosystems is that deciphering cannot
  start until a complete block has been received";
* ablation: pad-ahead depth of the stream engine.
"""

from __future__ import annotations

from ...analysis import ascii_plot, format_percent, format_table
from ...sim import MemoryConfig
from ...traces import make_workload
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, overhead_metrics, price


def task_latency_sweep(ctx: TaskContext) -> dict:
    latencies = (5, 40, 160) if ctx.quick else (5, 20, 40, 80, 160)
    trace = make_workload("branchy", n=ctx.n(N_ACCESSES))
    rows = []
    for latency in latencies:
        mem = MemoryConfig(size=1 << 21, latency=latency)
        stream, block = price(trace, ("stream", {"pad_ahead_depth": 2}),
                              "xom", mem_config=mem)
        rows.append({
            "latency": latency,
            "stream": overhead_metrics(stream),
            "block": overhead_metrics(block),
        })
    return {"rows": rows}


def task_pad_ahead(ctx: TaskContext) -> dict:
    # Fast memory: the fetch is too short to hide pad generation, so the
    # precomputed pads are what keeps the miss path clean.
    depths = (0, 1, 8) if ctx.quick else (0, 1, 2, 4, 8)
    fast_mem = MemoryConfig(size=1 << 21, latency=5)
    trace = make_workload("sequential", n=ctx.n(N_ACCESSES))
    results = price(trace, *(
        ("stream", {"pad_ahead_depth": depth,
                    "pad_cache_lines": max(2, 2 * depth)})
        for depth in depths), mem_config=fast_mem)
    return {"rows": [{"depth": depth, **overhead_metrics(result)}
                     for depth, result in zip(depths, results)]}


def render(results: dict) -> str:
    sweep = results["latency-sweep"]["rows"]
    table = format_table(
        ["memory latency", "stream overhead", "block overhead"],
        [[r["latency"], format_percent(r["stream"]["overhead"]),
          format_percent(r["block"]["overhead"])] for r in sweep],
        title="E02: stream vs block cipher overhead vs memory latency "
              "(survey Fig. 2)",
    )
    plot = ascii_plot(
        {"stream": [(r["latency"], 100 * r["stream"]["overhead"])
                    for r in sweep],
         "block": [(r["latency"], 100 * r["block"]["overhead"])
                   for r in sweep]},
        title="E02 figure: overhead (%) vs memory latency",
        x_label="memory latency (cycles)", y_label="%",
    )
    pads = results["pad-ahead"]["rows"]
    ablation = format_table(
        ["pad-ahead depth", "stream overhead (sequential, fast memory)"],
        [[r["depth"], format_percent(r["overhead"])] for r in pads],
        title="E02 ablation: pad-ahead depth",
    )
    return table + "\n" + plot + "\n\n" + ablation


def check(results: dict) -> None:
    sweep = results["latency-sweep"]["rows"]
    # Shape: block always worse than stream; stream stays small once the
    # fetch is slow enough to hide pad generation.
    for r in sweep:
        assert r["block"]["overhead"] > r["stream"]["overhead"]
    assert sweep[-1]["stream"]["overhead"] < 0.05
    pads = results["pad-ahead"]["rows"]
    # With fast memory the pads no longer hide behind the fetch: depth >= 1
    # must beat depth 0, and deeper never hurts on sequential code.
    assert pads[1]["overhead"] < pads[0]["overhead"]
    assert pads[-1]["overhead"] <= pads[1]["overhead"] + 1e-9


EXPERIMENT = Experiment(
    id="e02",
    title="Stream vs block cipher on the miss path",
    section="§2.2 / Fig. 2",
    tasks={"latency-sweep": task_latency_sweep, "pad-ahead": task_pad_ahead},
    render=render,
    check=check,
)

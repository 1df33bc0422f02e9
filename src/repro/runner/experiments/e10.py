"""E10 — §3 (XOM [13]): the pipelined AES and the latency-vs-system-cost
caveat.

Paper claims reproduced:
* "a pipelined AES block cipher as cipher unit which features a low latency
  of 14 latency cycles, while a throughput of one encrypted/decrypted data
  per clock cycle is claimed" — the microbenchmark rows;
* "taking into account only the latency doesn't inform about the overall
  system cost" — the same unit produces wildly different overheads across
  the workload suite, tracking miss rate rather than the constant 14.
"""

from __future__ import annotations

from ...analysis import format_percent, format_table
from ...sim import XOM_AES_PIPE, PipelinedUnit
from ...traces import WORKLOAD_NAMES, iter_sequential_code, make_workload
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, overhead_metrics, price


def task_microbench(ctx: TaskContext) -> dict:
    rows = []
    for nblocks in (1, 2, 8, 32, 128):
        cycles = XOM_AES_PIPE.time_for(nblocks)
        rows.append({
            "blocks": nblocks,
            "cycles": cycles,
            "per_block": round(cycles / nblocks, 4),
        })
    return {"rows": rows}


def task_system(ctx: TaskContext) -> dict:
    # Full-length traces even in quick mode: the claim is about the spread
    # of overheads across workloads, and short traces compress it (cold
    # misses dominate every workload equally).
    n = N_ACCESSES
    workloads = {
        # Cache-resident loop: the engine is nearly invisible.
        "loop-resident": list(iter_sequential_code(2 * n, code_size=2048)),
        # Working set slightly over the cache: moderate miss traffic.
        "loop-spill": list(iter_sequential_code(2 * n, code_size=8192)),
    }
    workloads.update(
        (name, make_workload(name, n=n)) for name in WORKLOAD_NAMES
    )
    rows = []
    for name, trace in workloads.items():
        [result] = price(trace, "xom", workload=name)
        rows.append({"workload": name, **overhead_metrics(result)})
    return {"rows": rows}


def task_iterative_vs_pipelined(ctx: TaskContext) -> dict:
    """Ablation: the same AES algorithm without pipelining."""
    trace = make_workload("branchy", n=ctx.n(N_ACCESSES))
    iterative = PipelinedUnit("aes-iter", latency=11, initiation_interval=11)
    pipe, iter_ = price(trace, "xom", ("xom", {"unit": iterative}))
    return {
        "pipelined": overhead_metrics(pipe),
        "iterative": overhead_metrics(iter_),
    }


def render(results: dict) -> str:
    parts = [format_table(
        ["blocks", "cycles", "cycles/block"],
        [[r["blocks"], r["cycles"], f"{r['per_block']:.2f}"]
         for r in results["microbench"]["rows"]],
        title="E10a: XOM pipelined AES unit (14-cycle latency, II=1)",
    )]
    parts.append(format_table(
        ["workload", "baseline miss rate", "overhead (same 14-cycle unit)"],
        [[r["workload"], f"{r['baseline_miss_rate']:.1%}",
          format_percent(r["overhead"])]
         for r in results["system"]["rows"]],
        title="E10b: one latency, many system costs (survey §3)",
    ))
    ab = results["iterative-vs-pipelined"]
    parts.append(format_table(
        ["unit", "overhead"],
        [["pipelined (II=1)", format_percent(ab["pipelined"]["overhead"])],
         ["iterative (II=11)", format_percent(ab["iterative"]["overhead"])]],
        title="E10c ablation: pipelining the AES core",
    ))
    return "\n\n".join(parts)


def check(results: dict) -> None:
    micro = results["microbench"]["rows"]
    assert micro[0]["cycles"] == 14                      # published latency
    assert micro[-1]["per_block"] < 1.2                  # ~1 block/cycle
    rows = results["system"]["rows"]
    overheads = [r["overhead"] for r in rows]
    assert max(overheads) > 4 * max(min(overheads), 1e-4)
    # Overhead tracks the miss rate, not the unit latency: the rank
    # correlation between the two columns must be strongly positive.
    miss = [r["baseline_miss_rate"] for r in rows]
    rank = lambda xs: {i: sorted(xs).index(x) for i, x in enumerate(xs)}
    rm, ro = rank(miss), rank(overheads)
    agreements = sum(
        1
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if (rm[i] - rm[j]) * (ro[i] - ro[j]) > 0
    )
    pairs = len(rows) * (len(rows) - 1) // 2
    assert agreements / pairs > 0.7
    ab = results["iterative-vs-pipelined"]
    assert ab["iterative"]["overhead"] > ab["pipelined"]["overhead"]


EXPERIMENT = Experiment(
    id="e10",
    title="XOM pipelined AES; latency vs system cost",
    section="§3",
    tasks={
        "microbench": task_microbench,
        "system": task_system,
        "iterative-vs-pipelined": task_iterative_vs_pipelined,
    },
    render=render,
    check=check,
)

"""E18 (extension) — address confidentiality: what it costs, what it buys.

The survey's engines encrypt the data bus; Best's patents and the DS5002FP
also obscured the *address* bus, and General Instrument's patent title
promises "block reordering".  This experiment measures both mechanisms
against the access-pattern side channel:

* line-address scrambling (`AddressScrambledEngine`) hides sequentiality
  from a probe at ~zero performance cost — but not the working-set size or
  revisit structure;
* GI block reordering hides the chain order inside a region, at the price
  of the sequential chain shortcut (every fill becomes a region burst).
"""

from __future__ import annotations

from ...analysis import format_percent, format_table
from ...attacks import BusProbe, classify_pattern, profile_probe
from ...core.registry import make_engine
from ...obs import TeeSink, current_sink
from ...sim import CacheConfig, MemoryConfig, SecureSystem
from ...traces import iter_sequential_code
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, overhead_metrics, price

CACHE = CacheConfig(size=1024, line_size=32, associativity=2)
MEM = MemoryConfig(size=1 << 21, latency=40)
IMAGE_SIZE = 16 * 1024


def task_scrambling_probe(ctx: TaskContext) -> dict:
    trace = list(iter_sequential_code(ctx.n(N_ACCESSES), code_size=IMAGE_SIZE))
    rows = []
    for label, engine in (
        ("stream (addresses in clear)", make_engine("stream")),
        ("stream + address scrambling",
         make_engine("addr-scramble-stream",
                     region_lines=IMAGE_SIZE // 32)),
    ):
        probe = BusProbe()
        system = SecureSystem(engine=engine, cache_config=CACHE,
                              mem_config=MEM,
                              sink=TeeSink(current_sink(), probe))
        system.install_image(0, bytes(IMAGE_SIZE))
        report = system.run(trace)
        prof = profile_probe(probe)
        baseline = SecureSystem(cache_config=CACHE, mem_config=MEM)
        baseline.install_image(0, bytes(IMAGE_SIZE))
        base_report = baseline.run(list(trace))
        rows.append({
            "design": label,
            "verdict": classify_pattern(probe),
            "seq_fraction": round(prof.sequential_fraction, 6),
            "working_set": prof.distinct_addresses,
            "overhead":
                round(report.overhead_vs(base_report), 6),
        })
    return {"rows": rows}


def task_gi_reordering(ctx: TaskContext) -> dict:
    trace = list(iter_sequential_code(ctx.n(N_ACCESSES), code_size=IMAGE_SIZE))
    designs = (("chained layout", False), ("chained + reordered", True))
    results = price(trace, *(
        ("gi", {"region_size": 512, "authenticate": False,
                "reorder": reorder}) for _, reorder in designs),
        image=bytes(IMAGE_SIZE), cache_config=CACHE, mem_config=MEM)
    return {"rows": [{"design": label, **overhead_metrics(result)}
                     for (label, _), result in zip(designs, results)]}


def render(results: dict) -> str:
    rows = results["scrambling-probe"]["rows"]
    probe = format_table(
        ["design", "probe verdict", "sequential transitions",
         "working set (lines)", "overhead"],
        [[r["design"], r["verdict"], f"{r['seq_fraction']:.0%}",
          r["working_set"], format_percent(r["overhead"])] for r in rows],
        title="E18a: line-address scrambling vs the pattern probe",
    )
    rrows = results["gi-reordering"]["rows"]
    reorder = format_table(
        ["design", "sequential-code overhead"],
        [[r["design"], format_percent(r["overhead"])] for r in rrows],
        title="E18b: GI block reordering forfeits the chain shortcut",
    )
    return probe + "\n\n" + reorder


def check(results: dict) -> None:
    clear, hidden = results["scrambling-probe"]["rows"]
    assert clear["verdict"] == "sequential"
    assert hidden["verdict"] == "random"
    # Cheap: a cycle per transfer, no crypto added.
    assert hidden["overhead"] - clear["overhead"] < 0.05
    # And honest: the working set stays fully visible.
    assert hidden["working_set"] >= clear["working_set"] - 8
    chained, reordered = results["gi-reordering"]["rows"]
    assert reordered["overhead"] > chained["overhead"]


EXPERIMENT = Experiment(
    id="e18",
    title="Address confidentiality: scrambling and reordering",
    section="extension of §3",
    tasks={"scrambling-probe": task_scrambling_probe,
           "gi-reordering": task_gi_reordering},
    render=render,
    check=check,
)

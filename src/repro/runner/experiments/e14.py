"""E14 — §3/§5 synthesis: the survey's comparison, made quantitative.

One row per surveyed engine: performance overhead on the workload suite,
silicon area, random-access support, sub-block-write behaviour, and the
highest IBM adversary class the engine's confidentiality withstands.  This
is the table the survey never printed but constantly argues about — the
trade between "intended security (robustness) and affordable performance
loss" (§2.2).
"""

from __future__ import annotations

from ...analysis import format_gates, format_percent, format_table
from ...attacks import rate_engine
from ...core.registry import engine_names, get_spec, make_engine
from ...traces import iter_sequential_code, make_workload
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, clamp, overhead_metrics, price

IMAGE_SIZE = 32 * 1024

#: Smallest independently decryptable unit per engine.
RANDOM_ACCESS_GRANULARITY = {
    "best": "block",
    "ds5002fp": "byte",
    "ds5240": "block",
    "vlsi": "page",
    "gi": "region",
    "gilmont": "block",
    "xom": "block",
    "aegis": "line",
    "stream": "byte",
}
#: Granularities that keep per-line random access cheap.
RANDOM_ACCESS_OK = {"byte", "block", "line"}


#: The engines every check references; quick mode restricts the table to
#: these (vlsi and ds5240 are the slowest simulations and only appear in
#: the full table).
CHECKED_ENGINES = ("best", "ds5002fp", "gi", "gilmont", "xom", "aegis",
                   "stream")


def task_table(ctx: TaskContext) -> dict:
    n = ctx.n(N_ACCESSES, quick=800)
    # install_image functionally enciphers the whole image, so quick mode
    # shrinks the image rather than (only) the trace.
    image_size = 8 * 1024 if ctx.quick else IMAGE_SIZE
    workloads = {
        "code": list(iter_sequential_code(n, code_size=image_size)),
        "mixed": clamp(make_workload("mixed", n=n), image_size),
    }
    names = [name for name in engine_names(survey_only=True)
             if not ctx.quick or name in CHECKED_ENGINES]
    # One baseline per workload prices the whole engine column.
    overheads = {wname: price(trace, *names, image=bytes(image_size))
                 for wname, trace in workloads.items()}
    rows = []
    for i, name in enumerate(names):
        engine = make_engine(name)
        rating = rate_engine(engine.name)
        granularity = RANDOM_ACCESS_GRANULARITY[name]
        rows.append({
            "engine": name,
            "summary": get_spec(name).summary,
            "code": overhead_metrics(overheads["code"][i]),
            "mixed": overhead_metrics(overheads["mixed"][i]),
            "area": engine.area().total,
            "granularity": granularity,
            "random_access": granularity in RANDOM_ACCESS_OK,
            "class": rating.highest_class_withstood,
        })
    return {"rows": rows}


def render(results: dict) -> str:
    rows = results["table"]["rows"]
    return format_table(
        ["engine", "code overhead", "mixed overhead", "area",
         "access granularity", "withstands class"],
        [[r["engine"], format_percent(r["code"]["overhead"]),
          format_percent(r["mixed"]["overhead"]), format_gates(r["area"]),
          r["granularity"], r["class"] or "none"] for r in rows],
        title="E14: the survey's comparison, quantified (survey §3/§5)",
    )


def check(results: dict) -> None:
    rows = results["table"]["rows"]
    by_name = {r["engine"]: r for r in rows}

    # §5's conclusion in data form.
    # 1. The broken/weak engines are the cheap fast ones.
    assert by_name["best"]["class"] == 0
    assert by_name["ds5002fp"]["class"] == 1
    assert by_name["best"]["area"] < 50_000
    # 2. The NIST-grade engines withstand the consumer-market threat
    #    (class II) but pay for it in area or cycles.
    for strong in ("xom", "aegis", "stream"):
        assert by_name[strong]["class"] >= 2
        assert by_name[strong]["area"] > 100_000
    # 3. Whole-region chaining forfeits random access and pays the most on
    #    mixed workloads among the 3DES designs.
    assert not by_name["gi"]["random_access"]
    assert by_name["gi"]["mixed"]["overhead"] > \
        by_name["aegis"]["mixed"]["overhead"]
    # 4. The stream engine is the overall performance winner among
    #    class-II-resistant designs.
    strong_named = ["xom", "aegis", "stream", "gilmont"]
    best_mixed = min(by_name[n]["mixed"]["overhead"] for n in strong_named)
    assert by_name["stream"]["mixed"]["overhead"] == best_mixed
    # 5. No engine is simultaneously the cheapest and the most secure —
    #    the survey's "challenge" stated as a Pareto fact.
    most_secure = {r["engine"] for r in rows
                   if r["class"] == max(x["class"] for x in rows)}
    cheapest = min(rows, key=lambda r: r["area"])
    assert cheapest["engine"] not in most_secure


EXPERIMENT = Experiment(
    id="e14",
    title="The survey's comparison table, quantified",
    section="§3/§5",
    tasks={"table": task_table},
    render=render,
    check=check,
)

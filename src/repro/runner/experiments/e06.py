"""E06 — Figure 3 / §3: Best's 1979 engine — cheap and fast, statistically
weak.

Paper claims reproduced:
* Best's cipher is built from "basic cryptographic functions such as mono
  and poly-alphabetic substitutions and byte transpositions" — near-zero
  latency and tiny area compared to NIST-grade cores;
* "the principle allowing a strong security is known: hardware
  implementation of algorithm approved by the NIST" — the statistical gap
  between Best and AES on the same image is the measurable content of that
  judgment.
"""

from __future__ import annotations

from ...analysis import (
    format_gates,
    format_percent,
    format_table,
    score_engine_ciphertext,
)
from ...core.registry import make_engine
from ...traces import make_workload, synthetic_code_image
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, overhead_metrics, price


def task_best_vs_aes(ctx: TaskContext) -> dict:
    image = synthetic_code_image(size=ctx.n(32 * 1024, quick=8 * 1024))
    trace = make_workload("mixed", n=ctx.n(N_ACCESSES))
    names = ("best", "xom")
    rows = []
    for name, perf in zip(names, price(trace, *names)):
        engine = make_engine(name)  # functional: scored on real ciphertext
        score = score_engine_ciphertext(engine, image)
        rows.append({
            "engine": name,
            "area": engine.area().total,
            "entropy": round(score.entropy_bits_per_byte, 6),
            "collisions": round(score.block_collision_rate, 6),
            "distinguishable": score.distinguishable,
            **overhead_metrics(perf),
        })
    return {"rows": rows}


def render(results: dict) -> str:
    rows = results["best-vs-aes"]["rows"]
    return format_table(
        ["engine", "overhead", "area", "ct entropy", "block collisions",
         "distinguishable?"],
        [[r["engine"], format_percent(r["overhead"]),
          format_gates(r["area"]), f"{r['entropy']:.2f}",
          f"{r['collisions']:.4f}", r["distinguishable"]] for r in rows],
        title="E06: Best 1979 vs pipelined AES (survey Fig. 3 / §3)",
    )


def check(results: dict) -> None:
    best, xom = results["best-vs-aes"]["rows"]
    # Cheap and fast...
    assert best["overhead"] < xom["overhead"]
    assert best["area"] < xom["area"] / 10
    # ...but statistically weaker on structured images.
    assert best["collisions"] > xom["collisions"]
    assert best["entropy"] <= xom["entropy"] + 1e-9


EXPERIMENT = Experiment(
    id="e06",
    title="Best 1979 engine vs pipelined AES",
    section="§3 / Fig. 3",
    tasks={"best-vs-aes": task_best_vs_aes},
    render=render,
    check=check,
)

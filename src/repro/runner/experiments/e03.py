"""E03 — §2.2: ECB's determinism leak vs CBC's random-access problem.

Paper claims reproduced:
* ECB: "a same data will be ciphered to the same value; which is the main
  security weakness of that mode" — measured as block-collision rate and
  the ECB distinguisher on a code-like image;
* CBC: "provides improved security ... Its use proves limited in a
  processor-memory system due to the random data access problem (JUMP
  instructions)" — measured as whole-image-chained read cost under
  sequential vs branchy fetch streams.
"""

from __future__ import annotations

from ...analysis import format_percent, format_table
from ...attacks import analyze_ciphertext, ecb_distinguisher
from ...crypto import CBC, ECB, tdes_kernel
from ...sim import CacheConfig
from ...traces import make_workload, synthetic_code_image
from ..base import Experiment, TaskContext
from .common import KEY24, N_ACCESSES, clamp, overhead_metrics, price


def task_ecb_leak(ctx: TaskContext) -> dict:
    image = synthetic_code_image(size=ctx.n(32 * 1024, quick=8 * 1024))
    tdes = tdes_kernel(KEY24)
    ecb_ct = ECB(tdes).encrypt(image)
    cbc_ct = CBC(tdes, bytes(8)).encrypt(image)
    rows = []
    for label, data in (("plaintext", image), ("ECB", ecb_ct),
                        ("CBC", cbc_ct)):
        analysis = analyze_ciphertext(data, block_size=8)
        rows.append({
            "mode": label,
            "entropy": round(analysis.entropy_bits_per_byte, 6),
            "collisions": round(analysis.block_collision_rate, 6),
            "distinguishable": ecb_distinguisher(data, block_size=8),
        })
    return {"rows": rows}


def task_cbc_random_access(ctx: TaskContext) -> dict:
    """Whole-image CBC chaining vs per-JUMP random access."""
    cache = CacheConfig(size=1024, line_size=32, associativity=2)
    image = bytes(16 * 1024)
    rows = []
    for name in ("sequential", "branchy"):
        trace = clamp(make_workload(name, n=ctx.n(N_ACCESSES)), 16 * 1024)
        [result] = price(
            trace, ("gi", {"region_size": 4096, "authenticate": False}),
            image=image, cache_config=cache,
        )
        rows.append({"workload": name, **overhead_metrics(result)})
    return {"rows": rows}


def render(results: dict) -> str:
    sec = results["ecb-leak"]["rows"]
    security = format_table(
        ["mode", "entropy (bits/B)", "block collision rate", "ECB leak?"],
        [[r["mode"], f"{r['entropy']:.2f}", f"{r['collisions']:.3f}",
          r["distinguishable"]] for r in sec],
        title="E03a: ECB determinism leak on a code-like image (survey §2.2)",
    )
    perf = results["cbc-random-access"]["rows"]
    performance = format_table(
        ["workload", "chained-CBC overhead"],
        [[r["workload"], format_percent(r["overhead"])] for r in perf],
        title="E03b: whole-region CBC vs access pattern (survey §2.2)",
    )
    return security + "\n\n" + performance


def check(results: dict) -> None:
    by_mode = {r["mode"]: r for r in results["ecb-leak"]["rows"]}
    assert by_mode["ECB"]["distinguishable"]
    assert not by_mode["CBC"]["distinguishable"]
    assert by_mode["ECB"]["collisions"] > 10 * max(
        by_mode["CBC"]["collisions"], 1e-6
    )
    by_name = {r["workload"]: r["overhead"]
               for r in results["cbc-random-access"]["rows"]}
    # Random access (branchy) pays dramatically more than sequential.
    assert by_name["branchy"] > 1.5 * by_name["sequential"]
    assert by_name["branchy"] > 1.0  # "unacceptable" territory


EXPERIMENT = Experiment(
    id="e03",
    title="ECB determinism leak vs CBC random-access penalty",
    section="§2.2",
    tasks={"ecb-leak": task_ecb_leak,
           "cbc-random-access": task_cbc_random_access},
    render=render,
    check=check,
)

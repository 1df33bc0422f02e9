"""E17 (extension) — the engine suite on *real* program traces.

The synthetic workload generators control miss rate and write mix
parametrically; these traces come from actually executing kernels (sort,
memcpy, memset, search, checksum) on the MCU model.  The experiment checks
that the survey-table orderings measured on synthetic workloads survive
contact with real instruction streams, and certifies every keystream
generator against the survey-era FIPS 140-1 battery.
"""

from __future__ import annotations

from ...analysis import fips_140_1, format_percent, format_table
from ...crypto import CTR, DRBG, RC4, aes_kernel
from ...crypto.lfsr import AlternatingStepGenerator, GeffeGenerator
from ...sim import CacheConfig, MemoryConfig
from ...traces import MCU_KERNELS, mcu_workload
from ..base import Experiment, TaskContext
from .common import KEY16, price

CACHE = CacheConfig(size=512, line_size=32, associativity=2)
MEM = MemoryConfig(size=1 << 16, latency=40)

ENGINE_NAMES = ("stream", "xom", "aegis", "ds5240")


def task_kernel_grid(ctx: TaskContext) -> dict:
    rows = []
    for kernel in MCU_KERNELS:
        trace = mcu_workload(kernel, repeat=1 if ctx.quick else 3)
        results = price(trace, *ENGINE_NAMES, workload=kernel,
                        cache_config=CACHE, mem_config=MEM)
        rows.append({"kernel": kernel, **{
            name: round(result.overhead, 6)
            for name, result in zip(ENGINE_NAMES, results)}})
    return {"rows": rows}


def task_fips(ctx: TaskContext) -> dict:
    sample = 2500
    taps = ((9, 5), (10, 7), (11, 9))
    streams = {
        "AES-CTR": CTR(aes_kernel(KEY16), nonce=bytes(12)).keystream(sample),
        "RC4": RC4(b"cert-key").keystream(sample),
        "Geffe combiner": GeffeGenerator(
            0x1F3, 0x2A5, 0x3B7, taps_a=taps[0], taps_b=taps[1],
            taps_c=taps[2],
        ).keystream(sample),
        "Alternating step": AlternatingStepGenerator(7, 77, 777)
        .keystream(sample),
        "repro DRBG": DRBG(2005).random_bytes(sample),
    }
    rows = []
    for label, stream in streams.items():
        r = fips_140_1(stream)
        rows.append({
            "generator": label,
            "passed": r.passed,
            "monobit_ones": r.monobit_ones,
            "poker_statistic": round(r.poker_statistic, 6),
            "longest_run": r.longest_run,
        })
    return {"rows": rows}


def render(results: dict) -> str:
    rows = results["kernel-grid"]["rows"]
    grid = format_table(
        ["kernel"] + list(ENGINE_NAMES),
        [[r["kernel"]] + [format_percent(r[name]) for name in ENGINE_NAMES]
         for r in rows],
        title="E17a: engine overhead on real MCU kernel traces",
    )
    frows = results["fips"]["rows"]
    fips = format_table(
        ["generator", "FIPS 140-1", "monobit ones", "poker", "longest run"],
        [[r["generator"], "PASS" if r["passed"] else "FAIL",
          r["monobit_ones"], f"{r['poker_statistic']:.1f}",
          r["longest_run"]] for r in frows],
        title="E17b: survey-era certification battery on the keystream "
              "generators",
    )
    return grid + "\n\n" + fips


def check(results: dict) -> None:
    # The synthetic-suite ordering holds on real programs, per kernel:
    # stream <= xom <= aegis, and the iterative-DES engine trails them.
    for r in results["kernel-grid"]["rows"]:
        assert r["stream"] <= r["xom"] + 1e-9, r["kernel"]
        assert r["xom"] <= r["aegis"] + 1e-9, r["kernel"]
        assert r["ds5240"] >= r["xom"], r["kernel"]
    # The battery is necessary, not sufficient: the Geffe combiner passes
    # here and falls to the correlation attack in E15d.
    assert all(r["passed"] for r in results["fips"]["rows"])


EXPERIMENT = Experiment(
    id="e17",
    title="Engine suite on real MCU kernel traces; FIPS battery",
    section="extension of §3/§4",
    tasks={"kernel-grid": task_kernel_grid, "fips": task_fips},
    render=render,
    check=check,
)

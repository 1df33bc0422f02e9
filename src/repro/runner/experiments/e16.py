"""E16 (extension) — the placement question with an L2, plus energy.

Generalizes Figure 7 to a two-level hierarchy: the EDU can guard the
L2-memory boundary (both caches plaintext, crypto on off-chip traffic only)
or the L1-L2 boundary (ciphertext L2 — tolerates on-chip probing of the
big array, §4's class-III concern — at crypto-per-L1-miss cost).  Also
prices the engines in energy, the survey constraint ("power consumption")
E14 leaves unquantified, and shows compression saving bus energy.
"""

from __future__ import annotations

from ...analysis import format_percent, format_table
from ...core.registry import make_engine
from ...sim import (
    EDU_L1_L2,
    EDU_L2_MEMORY,
    CacheConfig,
    MemoryConfig,
    SecureSystem,
    TwoLevelSystem,
    estimate_run,
)
from ...traces import (
    iter_sequential_code,
    make_workload,
    synthetic_code_image,
)
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, clamp

L1 = CacheConfig(size=2048, line_size=32, associativity=2, hit_latency=1)
L2 = CacheConfig(size=16 * 1024, line_size=32, associativity=4,
                 hit_latency=8)
MEM = MemoryConfig(size=1 << 21, latency=60)
IMAGE_SIZE = 32 * 1024


def task_hierarchy(ctx: TaskContext) -> dict:
    trace = clamp(make_workload("mixed", n=ctx.n(N_ACCESSES)), IMAGE_SIZE)
    rows = []
    baseline = TwoLevelSystem(l1_config=L1, l2_config=L2, mem_config=MEM)
    baseline.install_image(0, bytes(IMAGE_SIZE))
    base_report = baseline.run(list(trace))

    for level in (EDU_L2_MEMORY, EDU_L1_L2):
        engine = make_engine("xom", functional=False)
        system = TwoLevelSystem(
            engine=engine, l1_config=L1, l2_config=L2, mem_config=MEM,
            edu_level=level,
        )
        system.install_image(0, bytes(IMAGE_SIZE))
        report = system.run(list(trace))
        rows.append({
            "level": level,
            "overhead": round(report.overhead_vs(base_report), 6),
            "crypto_ops": engine.stats.lines_decrypted
            + engine.stats.lines_encrypted,
        })
    return {"rows": rows}


#: (label, registry name, engine params) for the energy comparison.
_ENERGY_ENGINES = (
    ("baseline", None, {}),
    ("best-1979", "best", {}),
    ("ds5240", "ds5240", {}),
    ("xom-aes", "xom", {}),
    ("stream-ctr", "stream", {}),
    ("compress+encrypt", "compress", {}),
)


def task_energy(ctx: TaskContext) -> dict:
    trace = list(iter_sequential_code(ctx.n(N_ACCESSES), code_size=IMAGE_SIZE))
    image = synthetic_code_image(size=IMAGE_SIZE)
    cache = CacheConfig(size=1024, line_size=32, associativity=2)
    narrow = MemoryConfig(size=1 << 21, latency=40, bus_width=2,
                          cycles_per_beat=2)
    rows = []
    for label, name, params in _ENERGY_ENGINES:
        engine = (make_engine(name, functional=False, **params)
                  if name else None)
        system = SecureSystem(engine=engine, cache_config=cache,
                              mem_config=narrow)
        system.install_image(0, image)
        report = system.run(list(trace))
        energy = estimate_run(report, engine)
        rows.append({
            "engine": label,
            "cycles": report.cycles,
            "bus_bytes": report.bus_bytes,
            "energy_uj": round(energy.total_uj, 6),
        })
    return {"rows": rows}


def render(results: dict) -> str:
    rows = results["hierarchy"]["rows"]
    hierarchy = format_table(
        ["EDU boundary", "overhead vs 2-level baseline", "crypto line-ops"],
        [[r["level"], format_percent(r["overhead"]), r["crypto_ops"]]
         for r in rows],
        title="E16a: Figure 7, generalized to an L1/L2 hierarchy",
    )
    erows = results["energy"]["rows"]
    energy = format_table(
        ["engine", "cycles", "bus bytes", "energy (uJ)"],
        [[r["engine"], r["cycles"], r["bus_bytes"],
          f"{r['energy_uj']:.1f}"] for r in erows],
        title="E16b: the survey's unquantified constraint — energy "
              "(narrow-bus memory)",
    )
    return hierarchy + "\n\n" + energy


def check(results: dict) -> None:
    by_level = {r["level"]: r for r in results["hierarchy"]["rows"]}
    # Guarding the inner boundary costs more crypto work and more cycles.
    assert by_level[EDU_L1_L2]["crypto_ops"] > \
        by_level[EDU_L2_MEMORY]["crypto_ops"]
    assert by_level[EDU_L1_L2]["overhead"] >= \
        by_level[EDU_L2_MEMORY]["overhead"]
    by_name = {r["engine"]: r for r in results["energy"]["rows"]}
    # Every engine costs energy over the baseline...
    for name in ("best-1979", "ds5240", "xom-aes", "stream-ctr"):
        assert by_name[name]["energy_uj"] > by_name["baseline"]["energy_uj"]
    # ...except compression, which can pay for its own crypto by moving
    # fewer bytes across the expensive external bus.
    assert by_name["compress+encrypt"]["bus_bytes"] < \
        by_name["baseline"]["bus_bytes"]
    assert by_name["compress+encrypt"]["energy_uj"] < \
        by_name["xom-aes"]["energy_uj"]


EXPERIMENT = Experiment(
    id="e16",
    title="EDU placement in an L1/L2 hierarchy; energy",
    section="extension of §4 / Fig. 7",
    tasks={"hierarchy": task_hierarchy, "energy": task_energy},
    render=render,
    check=check,
)

"""E08 — Figure 5 / §3: General Instrument's 3DES-CBC + keyed hash.

Paper claims reproduced:
* "cipher block chaining technique is very robust but implies unacceptable
  CPU performance degradation for random accesses in external memory" —
  swept over chain-region size, with the sequential case as contrast;
* "the possibility to authenticate the data coming from external memory
  thanks to a keyed hash algorithm" — tamper detection demonstrated and
  its verification cost measured;
* chain-granularity ablation: region = line degenerates into AEGIS-style
  per-line chaining and the penalty vanishes.
"""

from __future__ import annotations

from ...analysis import ascii_plot, format_percent, format_table
from ...core import AuthenticationError
from ...core.engine import MemoryPort
from ...core.registry import make_engine
from ...sim import Bus, CacheConfig, MainMemory, MemoryConfig
from ...traces import make_workload
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, clamp, overhead_metrics, price

CACHE = CacheConfig(size=1024, line_size=32, associativity=2)
MEM = MemoryConfig(size=1 << 21, latency=40)
IMAGE_SIZE = 32 * 1024


def _sweep_region_size(ctx: TaskContext, workload: str) -> dict:
    region_sizes = (32, 1024, 4096) if ctx.quick else (32, 256, 1024, 4096)
    # install_image chains the whole image through 3DES, so quick mode
    # shrinks the image rather than (only) the trace.
    image_size = 8 * 1024 if ctx.quick else IMAGE_SIZE
    trace = clamp(make_workload(workload, n=ctx.n(N_ACCESSES, quick=800)),
                  image_size)
    results = price(trace, *(
        ("gi", {"region_size": region, "authenticate": False})
        for region in region_sizes),
        image=bytes(image_size), cache_config=CACHE, mem_config=MEM)
    return {"rows": [{"region": region, **overhead_metrics(result)}
                     for region, result in zip(region_sizes, results)]}


def task_sequential(ctx: TaskContext) -> dict:
    return _sweep_region_size(ctx, "sequential")


def task_data_random(ctx: TaskContext) -> dict:
    return _sweep_region_size(ctx, "data-random")


def task_authentication(ctx: TaskContext) -> dict:
    engine = make_engine("gi", region_size=1024, authenticate=True)
    port = MemoryPort(MainMemory(MemoryConfig(size=1 << 16)), Bus())
    image = bytes((i * 7) & 0xFF for i in range(4096))
    engine.install_image(port.memory, 0, image)
    _, clean_cycles = engine.fill_line(port, 0, 32)
    # Attacker flips one external bit.
    tampered = port.memory.dump(2048, 1)[0] ^ 1
    port.memory.load_image(2048, bytes([tampered]))
    try:
        engine.fill_line(port, 2048, 32)
        detected = False
    except AuthenticationError:
        detected = True
    return {
        "clean_cycles": clean_cycles,
        "tamper_detected": detected,
        "tamper_events": engine.verdicts.tampers,
    }


def render(results: dict) -> str:
    sweeps = {
        "sequential": results["sequential-sweep"]["rows"],
        "data-random": results["data-random-sweep"]["rows"],
    }
    parts = []
    for workload, rows in sweeps.items():
        parts.append(format_table(
            ["chain region (B)", "overhead"],
            [[r["region"], format_percent(r["overhead"])] for r in rows],
            title=f"E08: 3DES-CBC chain-region sweep — {workload} "
                  "(survey Fig. 5)",
        ))
    parts.append(ascii_plot(
        {name: [(r["region"], 100 * r["overhead"]) for r in rows]
         for name, rows in sweeps.items()},
        title="E08 figure: overhead (%) vs chain-region size",
        x_label="chain region (bytes)", y_label="%",
    ))
    a = results["authentication"]
    parts.append(format_table(
        ["metric", "value"],
        [["clean first-touch cycles (incl. hash)", a["clean_cycles"]],
         ["single-bit tamper detected", a["tamper_detected"]],
         ["tamper events counted", a["tamper_events"]]],
        title="E08b: keyed-hash authentication (survey Fig. 5)",
    ))
    return "\n\n".join(parts)


def check(results: dict) -> None:
    rnd = {r["region"]: r["overhead"]
           for r in results["data-random-sweep"]["rows"]}
    seq = {r["region"]: r["overhead"]
           for r in results["sequential-sweep"]["rows"]}
    # Random access degrades sharply with the chain length...
    assert rnd[4096] > 5 * rnd[32]
    # ...while per-line chaining (the AEGIS fixed point) is bounded by the
    # iterative core's drain, not the chain.
    assert rnd[32] < 6.0
    # Sequential access is insulated by the chain register at every size.
    assert seq[4096] < rnd[4096] / 3
    a = results["authentication"]
    assert a["tamper_detected"]
    assert a["tamper_events"] == 1


EXPERIMENT = Experiment(
    id="e08",
    title="General Instrument 3DES-CBC + keyed hash",
    section="§3 / Fig. 5",
    tasks={
        "sequential-sweep": task_sequential,
        "data-random-sweep": task_data_random,
        "authentication": task_authentication,
    },
    render=render,
    check=check,
)

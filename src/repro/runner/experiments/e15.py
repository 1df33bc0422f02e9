"""E15 (extension) — §5 future work: integrity against instruction
modification.

"In future exploration, it might also be relevant to take into account the
problem of integrity, to thwart attacks based on the modification of the
fetched instructions."

The survey stops there; this experiment builds the obvious next engine and
measures what the sentence costs:

* per-line MAC tags detect modified/spoofed/relocated instructions;
* anti-replay needs on-chip version state — the versioned/unversioned
  ablation shows the replay hole and its price (SRAM + nothing on the
  miss path);
* performance and memory overhead of the shield on top of a
  confidentiality engine.

Also includes the keystream-quality experiment §4 implies: the Geffe
correlation attack recovering a cheap combiner's full state from observed
keystream.
"""

from __future__ import annotations

from ...analysis import format_gates, format_percent, format_table
from ...attacks import geffe_correlation_attack
from ...core import TamperDetected
from ...core.engine import MemoryPort
from ...core.registry import make_engine
from ...crypto.lfsr import GeffeGenerator
from ...sim import Bus, CacheConfig, MainMemory, MemoryConfig
from ...traces import iter_sequential_code, make_workload
from ..base import Experiment, TaskContext
from .common import N_ACCESSES, overhead_metrics, price

TAG_BASE = 1 << 20


def task_overhead(ctx: TaskContext) -> dict:
    rows = []
    for name in ("sequential", "mixed", "write-heavy"):
        trace = make_workload(name, n=ctx.n(N_ACCESSES))
        bare, shielded = price(trace, "xom", "integrity-xom")
        rows.append({
            "workload": name,
            "bare": overhead_metrics(bare),
            "shielded": overhead_metrics(shielded),
        })
    shield = make_engine("integrity-xom", functional=False)
    return {
        "rows": rows,
        "tag_overhead_fraction": shield.tag_overhead_fraction(32),
        "area": shield.area().total,
    }


def task_tamper_replay(ctx: TaskContext) -> dict:
    def run_case(versioned: bool) -> bool:
        engine = make_engine("integrity-stream", versioned=versioned)
        port = MemoryPort(MainMemory(MemoryConfig(size=1 << 21)), Bus())
        engine.install_image(port.memory, 0, bytes(64))
        engine.write_line(port, 0, b"v1-data-" * 4)
        stale_line = port.memory.dump(0, 32)
        stale_tag = port.memory.dump(engine._tag_addr(0, 32), 8)
        engine.write_line(port, 0, b"v2-data-" * 4)
        port.memory.load_image(0, stale_line)
        port.memory.load_image(engine._tag_addr(0, 32), stale_tag)
        engine._tag_cache.clear()
        try:
            engine.fill_line(port, 0, 32)
            return False
        except TamperDetected:
            return True

    versioned_area = make_engine("integrity-stream", functional=False,
                                 versioned=True).area().total
    bare_area = make_engine("integrity-stream", functional=False,
                            versioned=False).area().total
    return {
        "versioned": run_case(True),
        "unversioned": run_case(False),
        "versioned_area": versioned_area,
        "unversioned_area": bare_area,
    }


def task_merkle_vs_versions(ctx: TaskContext) -> dict:
    """Same security goal, two state budgets: per-line on-chip counters vs
    a 16-byte root + hash tree."""
    region = 32 * 1024
    trace = list(iter_sequential_code(ctx.n(N_ACCESSES), code_size=region))
    cache = CacheConfig(size=2048, line_size=32, associativity=2)
    n_lines = region // 32
    results = price(
        trace,
        ("integrity-stream", {"versioned": True, "tracked_lines": n_lines}),
        ("merkle-stream", {"node_cache_size": 64}),
        image=bytes(region), cache_config=cache,
    )
    designs = (("MAC tags + on-chip version table", 4 * n_lines, 8 / 32),
               ("Merkle tree (root on chip)", 16 + 64 * 16, 1.0))
    return {"rows": [{
        "design": label,
        "overhead": round(result.overhead, 6),
        "onchip_bytes": onchip_bytes,
        "mem_overhead": mem_overhead,
    } for (label, onchip_bytes, mem_overhead), result
        in zip(designs, results)]}


def task_keystream(ctx: TaskContext) -> dict:
    """§4's 'sufficiently random to be secure', enforced: a cheap Geffe
    combiner's full state falls to correlation analysis."""
    taps = ((9, 5), (10, 7), (11, 9))
    gen = GeffeGenerator(0x101, 0x202, 0x303, taps_a=taps[0],
                         taps_b=taps[1], taps_c=taps[2])
    ks = [gen.step() for _ in range(ctx.n(300, quick=300))]
    result = geffe_correlation_attack(ks, *taps)
    return {
        "succeeded": result.succeeded,
        "candidates_tested": result.candidates_tested,
        "naive_keyspace": result.naive_keyspace,
        "speedup": round(result.speedup, 3),
    }


def render(results: dict) -> str:
    o = results["overhead"]
    parts = [format_table(
        ["workload", "XOM alone", "XOM + integrity shield"],
        [[r["workload"], format_percent(r["bare"]["overhead"]),
          format_percent(r["shielded"]["overhead"])] for r in o["rows"]],
        title="E15a: the cost of §5's integrity sentence",
    )]
    parts.append(format_table(
        ["cost", "value"],
        [["external memory for tags",
          format_percent(o["tag_overhead_fraction"], signed=False)],
         ["engine area", format_gates(o["area"])]],
        title="E15b: integrity space costs",
    ))
    t = results["tamper-replay"]
    parts.append(format_table(
        ["design", "replay detected?", "area"],
        [["versioned tags (on-chip counters)", t["versioned"],
          format_gates(t["versioned_area"])],
         ["unversioned tags", t["unversioned"],
          format_gates(t["unversioned_area"])]],
        title="E15c: anti-replay needs on-chip freshness state",
    ))
    k = results["keystream"]
    parts.append(format_table(
        ["metric", "value"],
        [["seeds recovered", k["succeeded"]],
         ["candidates tested", k["candidates_tested"]],
         ["naive keyspace", f"{k['naive_keyspace']:,}"],
         ["divide-and-conquer speedup", f"{k['speedup']:,.0f}x"]],
        title="E15d: correlation attack on a cheap keystream generator",
    ))
    m = results["merkle-vs-versions"]["rows"]
    parts.append(format_table(
        ["anti-replay design", "overhead", "on-chip state (B)",
         "ext. memory overhead"],
        [[r["design"], format_percent(r["overhead"]), r["onchip_bytes"],
          format_percent(r["mem_overhead"], signed=False)] for r in m],
        title="E15e: two roads past §5 — counters vs a hash tree",
    ))
    return "\n\n".join(parts)


def check(results: dict) -> None:
    o = results["overhead"]
    for r in o["rows"]:
        assert r["shielded"]["overhead"] > r["bare"]["overhead"]
    assert o["tag_overhead_fraction"] == 0.25
    t = results["tamper-replay"]
    assert t["versioned"] is True
    assert t["unversioned"] is False
    versions, merkle = results["merkle-vs-versions"]["rows"]
    # The tree trades on-chip state (KBs -> a root + small cache) for
    # longer verification paths and a bigger external footprint.
    assert merkle["onchip_bytes"] < versions["onchip_bytes"] / 3
    assert merkle["overhead"] > versions["overhead"]
    assert merkle["mem_overhead"] > versions["mem_overhead"]
    k = results["keystream"]
    assert k["succeeded"]
    assert k["speedup"] > 10_000


EXPERIMENT = Experiment(
    id="e15",
    title="Integrity shield: MAC tags, replay, Merkle trees",
    section="§5 future work",
    tasks={
        "overhead": task_overhead,
        "tamper-replay": task_tamper_replay,
        "merkle-vs-versions": task_merkle_vs_versions,
        "keystream": task_keystream,
    },
    render=render,
    check=check,
)

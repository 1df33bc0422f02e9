"""One cold benchmark process: set a workload up, time it, digest its output.

    python3 perfbench/child.py WORKLOAD SEED MODE T0 SCRATCH

``run.py`` starts one of these per sample; each is a fresh interpreter so
every sample pays (and measures) a cold start.  MODE is one of

* ``setup``  — stop once set up; reports ``setup_s`` only;
* ``run``    — time the workload, digest its output;
* ``check``  — ``run``, then also digest the workload's reference leg
  (the same inputs through another path) for seeds with no recorded
  digest;
* ``trace``  — ``run`` under the span tracer; adds per-layer metrics and
  writes the spans to ``.perfbench/spans-WORKLOAD.npz``.

T0 is the parent's ``time.perf_counter()`` taken just before it started
this process.  That clock is system-wide on Linux, so ``setup_s`` spans
interpreter exec to ready-to-time.

Outside ``trace`` mode, set-up and the timed region are measured under a
``SpeedProbe`` and reported at the reference host speed (``wall_s``,
``setup_s``); ``raw_wall_s`` is the timed region's wall less the probes'
own time.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List, Tuple

from workloads import WORKLOADS, Context, digest

ROOT = Path(__file__).resolve().parent.parent

#: The probes, each ~1 ms, run every PROBE_INTERVAL_S (~2% of the timed
#: region, which the measurement takes back out): a pure-Python arithmetic
#: loop, and scattered lookups into a list and a dict of several MB.  Each
#: tracks the workloads' slowdowns on its own to a per-sample spread of
#: 6-9%; their geometric mean, to 4-5%.
SPIN_LOOPS = 12_000
TABLE_SIZE = 1 << 18
LOOKUPS = 2_000
PROBE_INTERVAL_S = 0.1
#: The probes' durations on the reference host (a 2-core x86 VM at its
#: usual speed, CPython 3.x) when fired inside a running workload, whose
#: working set leaves the lookups' caches cold.  An interval whose probes
#: took mean durations s and m is reported as
#: ``interval * sqrt(REFERENCE_SPIN_S / s * REFERENCE_LOOKUP_S / m)``.
#: The lookup tables add a fixed ~14 MB to every sample's ``rss_mb``.
REFERENCE_SPIN_S = 0.8e-3
REFERENCE_LOOKUP_S = 0.9e-3


def _spin(loops: int) -> int:
    total = 0
    for i in range(loops):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples the host's speed on the workload's own core, while it runs.

    This shared VM's cores slow down by 10-60% for seconds at a time as
    their neighbours load them, and the other core's speed does not track
    it (correlation ~0.3), so a wall time on its own says as much about
    the neighbours as about the program.  A SIGALRM handler times both
    probes between bytecodes of the workload every PROBE_INTERVAL_S; the
    probes fire uniformly in time, so their mean durations over an
    interval are its time-averaged slowdown.  The workloads run in this
    thread only (``workers=1``), so a probe never competes with them for
    the GIL.
    """

    def __init__(self) -> None:
        began = time.perf_counter()
        self._table = list(range(TABLE_SIZE))
        self._dict = dict.fromkeys(range(TABLE_SIZE >> 2), 1)
        self._keys = [i * 40503 % TABLE_SIZE for i in range(LOOKUPS)]
        #: (spin seconds, lookup seconds) per probe since the last take().
        self.durations: List[Tuple[float, float]] = []
        #: What building the lookup tables took.
        self.build_s = time.perf_counter() - began

    def _lookup(self) -> int:
        table, mapping, total = self._table, self._dict, 0
        for key in self._keys:
            total += table[key] + mapping.get(key, 0)
        return total

    def probe(self, *_signal) -> None:
        began = time.perf_counter()
        _spin(SPIN_LOOPS)
        middle = time.perf_counter()
        self._lookup()
        self.durations.append((middle - began, time.perf_counter() - middle))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self) -> List[Tuple[float, float]]:
        taken, self.durations = self.durations, []
        return taken


def net_seconds(raw: float, probes: List[Tuple[float, float]]) -> float:
    """``raw`` seconds less the time the probes inside it took."""
    return raw - sum(spin + lookup for spin, lookup in probes)


def reference_seconds(raw: float,
                      probes: List[Tuple[float, float]]) -> float:
    """``raw`` seconds, probes taken out, at the reference host speed."""
    spin = statistics.mean(spin for spin, _ in probes)
    lookup = statistics.mean(lookup for _, lookup in probes)
    speed = math.sqrt(REFERENCE_SPIN_S / spin * REFERENCE_LOOKUP_S / lookup)
    return net_seconds(raw, probes) * speed


def _percentile(values, n: int) -> float:
    """The last cut point of ``n`` quantiles (p80 for 5, p99 for 100)."""
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    return float(statistics.quantiles(values, n=n)[-1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced run (see BENCHMARK.json)."""
    from tracer import ROOT as ROOT_SPAN

    own = tracer.layer_self_seconds()
    count = tracer.counters

    def self_s(layer: str) -> float:
        return own.get(layer, 0.0)

    tasks = tracer.durations("runner.task").tolist()
    points = (tracer.durations("campaign.point") * 1e3).tolist()
    residue = self_s(ROOT_SPAN)
    return {
        "traces.gen.self_s": self_s("traces.gen"),
        "traces.gen.items": count["traces.gen.items"],
        "fastpath.compile.self_s": self_s("fastpath.compile"),
        "fastpath.compile.chunks": count["fastpath.compile.chunks"],
        "fastpath.execute.self_s": self_s("fastpath.execute"),
        "fastpath.accesses_per_run": _ratio(
            count["fastpath.compile.accesses"],
            count["fastpath.compile.runs"]),
        "engine.fill.self_s": self_s("engine.fill"),
        "engine.fill.lines": count["engine.fill.lines"],
        "engine.fill.lines_per_call": _ratio(
            count["engine.fill.lines"], count["engine.fill.calls"]),
        "engine.spill.self_s": self_s("engine.spill"),
        "engine.spill.lines": count["engine.spill.lines"],
        "engine.write_partial.self_s": self_s("engine.write_partial"),
        "engine.write_partial.calls": count["engine.write_partial.calls"],
        "engine.install.self_s": self_s("engine.install"),
        "cipher.self_s": self_s("cipher"),
        "cipher.calls": count["cipher.calls"],
        "cipher.blocks": count["cipher.blocks"],
        "cipher.blocks_per_call": _ratio(count["cipher.blocks"],
                                         count["cipher.calls"]),
        "cipher.wide_share": _ratio(count["cipher.wide_blocks"],
                                    count["cipher.blocks"]),
        "memory.self_s": self_s("memory"),
        "memory.bytes": count["memory.bytes"],
        "bus.self_s": self_s("bus"),
        "bus.transfers": count["bus.calls"],
        "faults.campaign.self_s": self_s("faults.campaign"),
        "faults.campaign.calls": count["faults.campaign.calls"],
        "runner.task.self_s": self_s("runner.task"),
        "runner.task_p50_s": statistics.median(tasks) if tasks else 0.0,
        "runner.task_p80_s": _percentile(tasks, 5),
        "runner.canonicalize.self_s": self_s("runner.canonicalize"),
        "cache.get.self_s": self_s("cache.get"),
        "cache.put.self_s": self_s("cache.put"),
        "obs.emit.self_s": self_s("obs.emit"),
        "obs.emit.calls": count["obs.emit.calls"],
        "registry.make_engine.self_s": self_s("registry.make_engine"),
        "registry.make_engine.calls": count["registry.make_engine.calls"],
        "system.build.self_s": self_s("system.build"),
        "overhead.self_s": self_s("overhead"),
        "overhead.calls": count["overhead.calls"],
        "campaign.plan.self_s": self_s("campaign.plan"),
        "campaign.point.self_s": self_s("campaign.point"),
        "campaign.point_p50_ms": statistics.median(points) if points else 0.0,
        "campaign.point_p99_ms": _percentile(points, 100),
        "campaign.merge.self_s": self_s("campaign.merge"),
        "trace.coverage": 1.0 - _ratio(residue, wall),
        "trace.residue_s": residue,
    }


def sim_counts(text: str) -> dict:
    """Deterministic SimReport counts of a stream document (else empty)."""
    try:
        metrics = json.loads(text)["metrics"]
        return {"accesses": metrics["accesses"],
                "lines_enciphered": metrics["lines_encrypted"]
                + metrics["lines_decrypted"]}
    except (ValueError, KeyError, TypeError):
        return {}


def main(argv) -> int:
    name, seed, mode, t0, scratch = argv
    workload = WORKLOADS[name]
    ctx = Context(root=ROOT, scratch=Path(scratch), seed=int(seed))
    # Every measured interval starts with one probe of its own, so each
    # has at least one however short it is.
    speed = SpeedProbe()
    speed.probe()
    speed.start()
    try:
        state = workload.setup(ctx)
        setup_raw = time.perf_counter() - float(t0) - speed.build_s
        out = {"setup_s": reference_seconds(setup_raw, speed.take())}
        if mode == "setup":
            print(json.dumps(out))
            return 0
        if mode != "trace":
            speed.take()
            start = time.perf_counter()
            speed.probe()
            text = workload.run(state)
            raw = time.perf_counter() - start
            probes = speed.take()
    finally:
        speed.stop()

    if mode == "trace":
        # No probes here: their time would land in whichever span they
        # interrupt.
        import tracer as tracing

        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            start = time.perf_counter()
            text = tracer.run_root(lambda: workload.run(state))
            wall = time.perf_counter() - start
        finally:
            patches.restore()
        out["layers"] = layer_metrics(tracer, wall)
        tracer.save(ROOT / ".perfbench" / f"spans-{name}.npz")
        out["raw_wall_s"] = wall
    else:
        out["wall_s"] = reference_seconds(raw, probes)
        out["raw_wall_s"] = net_seconds(raw, probes)
        out["probes"] = len(probes)
        out["probe_s"] = [statistics.mean(column) for column in zip(*probes)]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["items"] = workload.items(state)
    out["digest"] = digest(text)
    out["sim"] = sim_counts(text)
    if mode == "check" and workload.reference is not None:
        out["reference_digest"] = digest(workload.reference(state))

    from repro import backend
    import numpy

    out["backend"] = backend.ACTIVE
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

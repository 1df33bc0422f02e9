"""Host-time benchmark of the simulator: end to end, or layer by layer.

    python3 perfbench/run.py --workload suite-quick [--seed 2005]
                             [--seconds 25] [--trace 0|1]

Run from the root of a checkout (``src/repro`` and ``BENCHMARK.json``
there).  Every sample is a fresh interpreter (``perfbench/child.py``)
with ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` pinned to 1: numpy's
idle BLAS pool otherwise burns CPU beside the import, and nothing in
``src/`` calls BLAS.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times
are host seconds at the reference host speed: each sample measures its
host's speed on its own core while it runs (``child.SpeedProbe``) and
rescales its intervals to ``child.REFERENCE_PROBE_S``, because on a
shared VM a core's speed swings by tens of percent from one minute to
the next.  The unscaled walls are in the samples line as ``raw_wall_s``.

* ``wall_s`` — median wall of the timed region over the run's samples;
* ``items_per_s`` — median of items / wall (tasks, accesses or grid
  points, see ``workloads.py``);
* ``setup_s`` — median, over every cold start of the run, of the time from
  interpreter exec to ready-to-time.  One cold start is too noisy to
  repeat (0.35-0.55 s on a 2-core VM), so set-up-only samples are taken
  between the timed ones until there are at least ``MIN_SETUPS``;
* ``peak_rss_mb`` — median ``ru_maxrss`` of the timed samples' processes
  (the probe's lookup tables add a fixed ~14 MB to it).

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``BENCHMARK.json`` (medians over the traced
samples): self times and counts per layer from the span tracer
(``tracer.py``), ``sim.*`` host time per simulated event from the
untraced walls, ``trace.coverage``/``trace.residue_s`` and
``trace.overhead`` (traced over untraced wall, both unscaled: traced
samples run no probes).

Every sample's output is checked: the quick suite's metrics document must
equal ``BENCH_quick_metrics.json`` byte for byte, the campaign's must hash
to ``BENCH_campaign_scaling.json``'s ``metrics_sha256``, and a stream
document must hash to the digest recorded for its seed in
``digests.json`` — or, for an unrecorded seed, to the digest of
``repro.api.run_stream`` on the same inputs (computed once per run).  A
mismatch or a crash counts as a failed operation.

The second-to-last stdout line holds the provenance and every sample; the
last line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Context  # noqa: E402

#: Environment every sample runs under (also spelled out in the
#: ``command`` of BENCHMARK.json).  The hash seed pins dict and set layout
#: of str keys, one more source of run-to-run variation.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}

MIN_SAMPLES = 2        # timed samples per run, whatever --seconds says
MIN_SETUPS = 9         # cold starts behind one setup_s median
CHILD_TIMEOUT = 120.0  # seconds; one sample of any workload takes < 30
RUN_CAP = 150.0        # stop starting samples past this (exit < 180 s)


class Sampler:
    """Starts cold sample processes and accounts for their outcomes."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.scratch = root / ".perfbench"
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                   if os.environ.get("PYTHONPATH") else []))
        self.started = time.perf_counter()
        self.longest = 0.0
        self.attempted = 0
        self.failed = 0
        self.samples: List[dict] = []
        golden = WORKLOADS[workload].golden(
            Context(root=root, scratch=self.scratch, seed=seed))
        self.expected: Optional[str] = golden
        self.needs_reference = golden is None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def room_for_another(self) -> bool:
        return self.elapsed() + self.longest < RUN_CAP

    def sample(self, mode: str) -> Optional[dict]:
        """Run one cold child; returns its record, or None if it failed."""
        if mode == "run" and self.needs_reference:
            mode = "check"
        work = self.scratch / "tmp" / f"{os.getpid()}-{self.attempted}"
        work.mkdir(parents=True, exist_ok=True)
        self.attempted += 1
        began = time.perf_counter()
        argv = [sys.executable, str(HERE / "child.py"), self.workload,
                str(self.seed), mode]
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(argv + [repr(t0), str(work)],
                                  cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
            record = self._parse(proc, mode)
        except subprocess.TimeoutExpired:
            record = None
            print(f"perfbench: {mode} sample timed out", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.longest = max(self.longest, time.perf_counter() - began)
        if record is None or not self._output_ok(record):
            self.failed += 1
            return None
        record["mode"] = mode
        self.samples.append(record)
        return record

    def _parse(self, proc, mode: str) -> Optional[dict]:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {mode} sample exited {proc.returncode}:\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(lines[-1])

    def _output_ok(self, record: dict) -> bool:
        if "digest" not in record:
            return True
        if self.needs_reference and self.expected is None:
            self.expected = record.get("reference_digest")
            self.needs_reference = False
        if record["digest"] != self.expected:
            print(f"perfbench: output digest {record['digest'][:16]} != "
                  f"expected {str(self.expected)[:16]}", file=sys.stderr)
            return False
        return True

    def recorded(self, *modes: str) -> List[dict]:
        return [s for s in self.samples if s["mode"] in modes]


def _median(values) -> float:
    return float(statistics.median(values))


def _sample_until(sampler: Sampler, seconds: float, modes, least: int,
                  between: Optional[str] = None) -> None:
    """Take ``modes`` samples in turn until the next round would overrun
    ``seconds`` (but at least ``least`` rounds); after each round, one
    ``between`` sample while cold starts are still short of MIN_SETUPS."""
    rounds = 0
    round_time = 0.0
    while rounds < least or (
            sampler.elapsed() + round_time <= seconds
            and sampler.room_for_another()):
        began = time.perf_counter()
        for mode in modes:
            sampler.sample(mode)
        # The latest round predicts the next: the first may also have run
        # the reference leg.
        round_time = time.perf_counter() - began
        rounds += 1
        if between and len(sampler.samples) < MIN_SETUPS:
            sampler.sample(between)
        if not sampler.room_for_another():
            break


def end_to_end(sampler: Sampler, seconds: float) -> Dict[str, float]:
    _sample_until(sampler, seconds, ("run",), MIN_SAMPLES, between="setup")
    while len(sampler.samples) < MIN_SETUPS and sampler.room_for_another():
        sampler.sample("setup")
    timed = sampler.recorded("run", "check")
    if not timed:
        raise SystemExit("perfbench: no timed sample succeeded")
    return {
        "wall_s": _median(s["wall_s"] for s in timed),
        "items_per_s": _median(s["items"] / s["wall_s"] for s in timed),
        "setup_s": _median(s["setup_s"] for s in sampler.samples),
        "peak_rss_mb": _median(s["rss_mb"] for s in timed),
    }


def per_layer(sampler: Sampler, seconds: float) -> Dict[str, float]:
    _sample_until(sampler, seconds, ("run", "trace"), 1)
    plain = sampler.recorded("run", "check")
    traced = sampler.recorded("trace")
    if not plain or not traced:
        raise SystemExit("perfbench: no traced/untraced sample pair "
                         "succeeded")
    wall = _median(s["wall_s"] for s in plain)
    metrics = {name: _median(s["layers"][name] for s in traced)
               for name in traced[0]["layers"]}
    sim = plain[0]["sim"]
    metrics["sim.ns_per_access"] = (
        wall * 1e9 / sim["accesses"] if sim.get("accesses") else 0.0)
    metrics["sim.us_per_line_enciphered"] = (
        wall * 1e6 / sim["lines_enciphered"]
        if sim.get("lines_enciphered") else 0.0)
    metrics["trace.overhead"] = (_median(s["raw_wall_s"] for s in traced)
                                 / _median(s["raw_wall_s"] for s in plain))
    return metrics


def provenance(root: Path, sampler: Sampler, trace: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(str(path.relative_to(root)).encode())
        sources.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": sampler.workload,
        "seed": sampler.seed,
        "trace": trace,
        "backend": next((s["backend"] for s in sampler.samples
                         if "backend" in s), None),
        "python": platform.python_version(),
        "numpy": next((s["numpy"] for s in sampler.samples
                       if "numpy" in s), None),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
        "child_env": CHILD_ENV,
        "expected_digest": sampler.expected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="sampling time; at least MIN_SAMPLES samples "
                             "are taken however long they last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "repro").is_dir() or not spec_path.is_file():
        print("perfbench: run from the root of a repro checkout "
              "(needs src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sampler = Sampler(root, args.workload, args.seed)
    sampler.sample("setup")   # warm-up: byte-compiles, fills page cache
    sampler.samples.clear()
    measure = per_layer if args.trace else end_to_end
    values = measure(sampler, args.seconds)
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
              f"differ from BENCHMARK.json", file=sys.stderr)
        return 1

    print(json.dumps({"provenance": provenance(root, sampler, args.trace),
                      "samples": sampler.samples}))
    print(json.dumps({
        "correct": sampler.failed == 0,
        "attempted": sampler.attempted,
        "failed": sampler.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own checks: span arithmetic, wrappers, output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import child
import run
import tracer as tracing
import workloads
from workloads import Context, StreamSpec

ROOT = Path(__file__).resolve().parents[2]


# -- span arithmetic ---------------------------------------------------------------


def test_self_times_of_a_synthetic_tree():
    # root [0, 100) holds A [10, 40) and B [50, 90); A holds C [15, 25).
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    assert tracing.self_times(parent, start, end).tolist() == [30, 20, 10, 40]


def test_wrapped_calls_nest_and_same_layer_recursion_is_one_span(monkeypatch):
    ticks = iter([0, 10, 20, 30, 45, 100])
    monkeypatch.setattr(tracing.time, "perf_counter_ns", lambda: next(ticks))
    tracer = tracing.Tracer()

    def inner(depth):
        return wrapped_inner(depth - 1) if depth else "leaf"

    wrapped_inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda: [wrapped_inner(3), wrapped_inner(0)], "outer")

    assert outer() == ["leaf", "leaf"]
    assert len(tracer.end) == 3          # outer + two inner, recursion folded
    own = tracer.layer_self_seconds()
    assert own["outer"] == pytest.approx(75e-9)
    assert own["inner"] == pytest.approx(25e-9)
    assert tracer.durations("inner").tolist() == pytest.approx([10e-9, 15e-9])


def test_generator_work_lands_in_per_next_spans():
    tracer = tracing.Tracer()
    gen = tracer.wrap(lambda n: (list(range(3)) for _ in range(n)),
                      "traces.gen", count=tracing._items, iterates=True)
    chunks = tracer.run_root(lambda: list(gen(4)))
    assert chunks == [[0, 1, 2]] * 4
    assert tracer.counters["traces.gen.items"] == 12
    # one span for the call, five for the nexts (the last one stops)
    assert len(tracer.durations("traces.gen")) == 6


# -- host-speed probe ----------------------------------------------------------------


def test_probe_time_is_taken_out_and_the_rest_rescaled():
    at_reference = [(child.REFERENCE_SPIN_S, child.REFERENCE_LOOKUP_S)] * 4
    probe_s = 4 * (child.REFERENCE_SPIN_S + child.REFERENCE_LOOKUP_S)
    assert child.net_seconds(1.0, at_reference) == pytest.approx(
        1.0 - probe_s)
    assert child.reference_seconds(1.0, at_reference) == pytest.approx(
        1.0 - probe_s)
    # a host at half speed on both probes: half the net interval
    slow = [(2 * spin, 2 * lookup) for spin, lookup in at_reference]
    assert child.reference_seconds(1.0, slow) == pytest.approx(
        (1.0 - 2 * probe_s) / 2)


def test_probe_fires_while_the_workload_runs_and_stops_after():
    speed = child.SpeedProbe()
    speed.start()
    try:
        deadline = time.perf_counter() + 4 * child.PROBE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        speed.stop()
    assert len(speed.take()) >= 3
    time.sleep(2 * child.PROBE_INTERVAL_S)
    assert speed.take() == []


# -- wrappers ------------------------------------------------------------------------


def _snapshot():
    import repro  # noqa: F401

    namespaces = {name: dict(vars(module))
                  for name, module in list(sys.modules.items())
                  if module is not None
                  and (name == "repro" or name.startswith("repro."))}
    classes = {}
    for namespace in namespaces.values():
        for value in namespace.values():
            if isinstance(value, type) and value.__module__.startswith("repro"):
                classes[value] = dict(vars(value))
    return namespaces, classes


def test_wrappers_restore_the_original_attributes():
    import repro.api
    import repro.campaign  # noqa: F401
    import repro.runner  # noqa: F401
    from repro.crypto.kernels import AESKernel
    from repro.sim import fastpath

    before_ns, before_cls = _snapshot()
    execute, make_engine = fastpath.execute, repro.api.make_engine
    encrypt_blocks = AESKernel.__dict__["encrypt_blocks"]

    patches = tracing.install(tracing.Tracer())
    try:
        assert len(patches) > 50
        assert fastpath.execute is not execute
        # a by-value import is patched too, not only the defining module
        assert repro.api.make_engine is not make_engine
        assert AESKernel.__dict__["encrypt_blocks"] is not encrypt_blocks
    finally:
        patches.restore()

    after_ns, after_cls = _snapshot()
    for name, namespace in before_ns.items():
        changed = [attr for attr, value in namespace.items()
                   if after_ns[name].get(attr) is not value]
        assert not changed, (name, changed)
    for cls, namespace in before_cls.items():
        changed = [attr for attr, value in namespace.items()
                   if vars(cls).get(attr) is not value]
        assert not changed, (cls, changed)


# -- traced stream-burst --------------------------------------------------------------


def _traced(spec: StreamSpec, seed: int = 2005):
    workload = workloads._stream("probe", spec)
    state = workload.setup(Context(root=ROOT, scratch=ROOT, seed=seed))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        start = time.perf_counter()
        text = tracer.run_root(lambda: workload.run(state))
        wall = time.perf_counter() - start
    finally:
        patches.restore()
    return text, child.layer_metrics(tracer, wall)


def test_small_stream_burst_makes_no_cipher_calls():
    spec = StreamSpec("xom", "dma-burst", 20_000, False)
    text, layers = _traced(spec)
    assert layers["cipher.calls"] == 0
    assert layers["cipher.blocks"] == 0
    assert layers["traces.gen.items"] == 20_000
    assert layers["engine.fill.lines"] > 0
    assert layers["bus.transfers"] == child.sim_counts(text)[
        "lines_enciphered"]
    assert layers["trace.coverage"] >= 0.9
    # tracing must not change a simulated byte
    assert text == workloads.stream_document(spec.api_document(2005))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, layers = _traced(StreamSpec("aegis", "write-heavy", 500, True))
    parent_side = {"sim.ns_per_access", "sim.us_per_line_enciphered",
                   "trace.overhead"}
    assert set(layers) | parent_side == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "items_per_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


# -- output checks ---------------------------------------------------------------------


class _FakeChild:
    """Stands in for subprocess.run: answers with a canned sample record."""

    def __init__(self, record):
        self.record = record

    def __call__(self, argv, **kwargs):
        return subprocess.CompletedProcess(
            argv, 0, stdout=json.dumps(self.record) + "\n", stderr="")


def _sampler(monkeypatch, tmp_path, record, seed=2005):
    monkeypatch.setattr(run.subprocess, "run", _FakeChild(record))
    sampler = run.Sampler(ROOT, "stream-burst", seed)
    sampler.scratch = tmp_path
    return sampler


def test_recorded_digest_passes_and_a_forged_one_fails(monkeypatch, tmp_path):
    good = json.loads((workloads.DIGESTS).read_text())["stream-burst"]["2005"]
    sampler = _sampler(monkeypatch, tmp_path,
                       {"setup_s": 0.4, "wall_s": 3.0, "digest": good})
    assert sampler.sample("run") is not None
    forged = "0" * 64
    monkeypatch.setattr(run.subprocess, "run", _FakeChild(
        {"setup_s": 0.4, "wall_s": 3.0, "digest": forged}))
    assert sampler.sample("run") is None
    assert (sampler.attempted, sampler.failed) == (2, 1)


def test_unrecorded_seed_checks_against_the_reference_leg(monkeypatch,
                                                          tmp_path):
    sampler = _sampler(monkeypatch, tmp_path,
                       {"setup_s": 0.4, "wall_s": 3.0, "digest": "a" * 64,
                        "reference_digest": "b" * 64}, seed=99)
    assert sampler.needs_reference
    assert sampler.sample("run") is None          # disagrees with run_stream
    monkeypatch.setattr(run.subprocess, "run", _FakeChild(
        {"setup_s": 0.4, "wall_s": 3.0, "digest": "b" * 64}))
    assert sampler.sample("run") is not None
    assert (sampler.attempted, sampler.failed) == (2, 1)


def test_crashing_sample_counts_as_failed(monkeypatch, tmp_path):
    sampler = _sampler(monkeypatch, tmp_path, {})
    monkeypatch.setattr(run.subprocess, "run", lambda argv, **kw:
                        subprocess.CompletedProcess(argv, 1, "", "boom"))
    assert sampler.sample("run") is None
    assert (sampler.attempted, sampler.failed) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The benchmark's four workloads: cold set-up, timed body, checked output.

Each workload is split where a user's invocation stops paying fixed costs:

* ``setup(ctx)`` runs right after interpreter start and covers what one
  invocation pays once — ``import repro``, engine construction and
  ``install_image``, experiment-registry or campaign-spec construction.
  It returns the state the timed body needs.
* ``run(state)`` is the timed region.  It returns the output document as
  text; its sha256 is what the output check compares.

Every workload runs single-process (``workers=1``, no extra threads) so
host time is the simulator's own, not a scheduler's.

Only the stream workloads draw their inputs from the seed: the quick suite
and the campaign grid are fixed inputs whose outputs are committed at the
repository root (``BENCH_quick_metrics.json``,
``BENCH_campaign_scaling.json``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional

#: Accesses per stream sample, sized to ~3.5 s of host time each (~650k
#: acc/s timing-only, ~17k acc/s functional AES on a 2-core VM): long
#: enough to average this shared VM's second-to-second speed swings, short
#: enough that three fit in one run.
BURST_ACCESSES = 2_000_000
AES_WRITE_ACCESSES = 60_000

#: Recorded sha256 of each stream workload's document, per seed.
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Chunk size of the reference leg that checks seeds with no recorded
#: digest: metrics must not depend on how the stream is chunked.
REFERENCE_CHUNK = 1000


@dataclass(frozen=True)
class Context:
    """What a workload may read: the checkout, a scratch dir, the seed."""

    root: Path
    scratch: Path
    seed: int


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json."""

    name: str
    setup: Callable[[Context], object]
    run: Callable[[object], str]
    #: Number of items one run processes (may depend on the state).
    items: Callable[[object], int]
    #: The sha256 the output must have, or None when none is recorded.
    golden: Callable[[Context], Optional[str]]
    #: Output of the same inputs by another path, for unrecorded seeds.
    reference: Optional[Callable[[object], str]] = None
    #: The ``run_stream`` call a stream workload reproduces.
    stream: Optional["StreamSpec"] = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- suite-quick ---------------------------------------------------------------


def _suite_setup(ctx: Context):
    from repro.runner import ExperimentRunner

    return ExperimentRunner(quick=True, workers=1, observe=True,
                            cache_dir=ctx.scratch / "suite-cache")


def _suite_run(runner) -> str:
    result = runner.run()
    if not result.all_checks_passed:
        failing = sorted(
            exp_id for exp_id, exp in result.metrics["experiments"].items()
            if exp["checks"]["passed"] not in (True, None))
        raise AssertionError(f"experiment checks failed: {failing}")
    return result.metrics_json()


def _suite_items(runner) -> int:
    return sum(len(experiment.tasks) for experiment in runner.experiments)


def _suite_golden(ctx: Context) -> str:
    committed = (ctx.root / "BENCH_quick_metrics.json").read_bytes()
    return hashlib.sha256(committed).hexdigest()


# -- campaign-grid -------------------------------------------------------------


def _campaign_setup(ctx: Context):
    from repro.campaign import CampaignCoordinator
    from repro.campaign.bench import scaling_grid

    coordinator = CampaignCoordinator(
        scaling_grid(), workers=1, cache_dir=ctx.scratch / "campaign-cache")
    coordinator.plan()
    return coordinator


def _campaign_run(coordinator) -> str:
    return coordinator.run().metrics_json()


def _campaign_items(coordinator) -> int:
    return coordinator.spec.size


def _campaign_golden(ctx: Context) -> str:
    summary = json.loads((ctx.root / "BENCH_campaign_scaling.json")
                         .read_text(encoding="utf-8"))
    return summary["metrics_sha256"]


# -- stream workloads ----------------------------------------------------------
#
# ``repro.api.run_stream`` builds its engine, system, image and trace
# stream and then runs them, all in one call.  The benchmark makes the same
# calls in two halves, so engine construction and ``install_image`` land in
# set-up and the timed region is the trace run alone.  Its document must
# equal ``run_stream``'s byte for byte: the recorded digests come from
# ``run_stream`` and the reference leg is ``run_stream`` itself.

#: ``run_stream``'s defaults, which these workloads use.
IMAGE_SIZE = 32 * 1024


@dataclass(frozen=True)
class StreamSpec:
    engine: str
    workload: str
    accesses: int
    functional: bool

    def api_document(self, seed: int,
                     chunk_size: Optional[int] = None) -> Dict:
        """The public ``run_stream`` call these workloads reproduce."""
        import repro.api as api

        extra = {} if chunk_size is None else {"chunk_size": chunk_size}
        return api.run_stream(
            engine=self.engine, workload=self.workload,
            accesses=self.accesses, seed=seed,
            functional=self.functional, **extra)


@dataclass(frozen=True)
class _StreamState:
    spec: StreamSpec
    seed: int
    system: object
    trace: object
    chunk_size: int


def _stream_trace(spec: StreamSpec, seed: int, chunk_size: int):
    from repro import backend
    from repro.traces import TraceStream, chunked, iter_workload
    from repro.traces.workloads import ARRAY_STREAM_NAMES, array_stream_workload

    if backend.ACTIVE == "numpy" and spec.workload in ARRAY_STREAM_NAMES:
        return array_stream_workload(spec.workload, n=spec.accesses,
                                     seed=seed, chunk_size=chunk_size,
                                     addr_mod=IMAGE_SIZE)

    def accesses():
        for a in iter_workload(spec.workload, n=spec.accesses, seed=seed):
            yield type(a)(a.kind, a.addr % IMAGE_SIZE, a.size)

    return TraceStream(lambda: chunked(accesses(), chunk_size))


def stream_document(doc: Dict) -> str:
    """Canonical text of a ``run_stream`` document (what gets digested)."""
    return json.dumps(doc, sort_keys=True)


def _stream(name: str, spec: StreamSpec) -> Workload:
    def setup(ctx: Context) -> _StreamState:
        from repro.api import make_engine
        from repro.sim import CacheConfig, MemoryConfig, SecureSystem
        from repro.traces import DEFAULT_CHUNK_SIZE

        system = SecureSystem(
            engine=make_engine(spec.engine, functional=spec.functional),
            cache_config=CacheConfig(size=4096, line_size=32,
                                     associativity=2),
            mem_config=MemoryConfig(size=1 << 21, latency=40),
        )
        system.install_image(0, bytes(IMAGE_SIZE))
        return _StreamState(spec, ctx.seed, system,
                            _stream_trace(spec, ctx.seed, DEFAULT_CHUNK_SIZE),
                            DEFAULT_CHUNK_SIZE)

    def run(state: _StreamState) -> str:
        from repro.runner import stable_floats

        report = state.system.run(state.trace, label=spec.engine)
        doc = {"engine": spec.engine, "workload": spec.workload,
               "seed": state.seed, "chunk_size": state.chunk_size,
               "metrics": report.to_metrics()}
        return stream_document(stable_floats(json.loads(json.dumps(doc))))

    def golden(ctx: Context) -> Optional[str]:
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
        return recorded.get(name, {}).get(str(ctx.seed))

    def reference(state: _StreamState) -> str:
        # The public call, chunked differently: metrics must not depend
        # on the chunking, nor on how the benchmark split the call.
        doc = spec.api_document(state.seed, chunk_size=REFERENCE_CHUNK)
        doc["chunk_size"] = state.chunk_size
        return stream_document(doc)

    return Workload(name, setup, run,
                    lambda state: state.spec.accesses, golden, reference, spec)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("suite-quick", _suite_setup, _suite_run, _suite_items,
             _suite_golden),
    _stream("stream-burst",
            StreamSpec("xom", "dma-burst", BURST_ACCESSES, False)),
    _stream("stream-aes-write",
            StreamSpec("aegis", "write-heavy", AES_WRITE_ACCESSES, True)),
    Workload("campaign-grid", _campaign_setup, _campaign_run,
             _campaign_items, _campaign_golden),
)}

"""Stable top-level facade for the repro package.

Most programmatic uses of the reproduction need a handful of verbs,
re-exported here so callers don't have to know the package layout::

    import repro.api as repro

    repro.list_engines()                        # what can I build?
    engine = repro.make_engine("aegis")         # build it
    result = repro.run_experiment("e02")        # run a registry experiment
    summary = repro.trace_experiment("e02")     # same, with the event trace
    sweep = repro.run_campaign(spec)            # sharded design-space sweep
    repro.engine_overhead("stream", "mixed")    # measure one engine
    repro.engine_overheads(["stream", "xom"])   # several, one baseline
    repro.attack_summary(memory=512)            # break the weak one
    repro.fault_campaign("integrity-stream")    # active-attack campaigns

:func:`run_experiment`, :func:`trace_experiment` and
:func:`run_campaign` return typed results (:class:`ExperimentResult`,
:class:`TraceSummary`, :class:`CampaignResult`); experiment
``observability`` data comes from the same :mod:`repro.obs` event stream
the experiment runner aggregates — one accounting, every surface.

This module is the supported integration surface, and ``__all__`` below
is exactly that surface: deeper imports (``repro.core``, ``repro.sim``,
…) remain available but may be reorganized; ``repro.api`` will keep
these signatures stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from .analysis import OverheadResult, price_engines
from .campaign import CampaignResult, CampaignSpec
from .core.registry import (
    ENGINE_SPECS,
    EngineSpec,
    engine_names,
    get_spec,
    make_engine,
)
from .obs import (
    CounterSink,
    EventSink,
    RecordingSink,
    TraceEvent,
    format_counter_table,
    observability_section,
)
from .runner import stable_floats
from .sim import CacheConfig, MemoryConfig
from .traces import (
    STREAM_WORKLOAD_NAMES,
    TraceStream,
    chunked,
    iter_workload,
    make_workload,
    mcu_workload,
    stream_workload,
)
from .traces.stream import DEFAULT_CHUNK_SIZE

__all__ = [
    # engines
    "make_engine", "get_spec", "EngineSpec", "ENGINE_SPECS",
    "engine_names", "list_engines",
    # registry experiments
    "ExperimentResult", "TraceSummary",
    "run_experiment", "trace_experiment",
    # design-space campaigns
    "CampaignSpec", "CampaignResult", "run_campaign",
    # one-shot measurements
    "engine_overhead", "engine_overheads", "attack_summary",
    "fault_campaign",
    # streaming execution
    "run_stream", "stream_system", "stream_workload",
    "STREAM_WORKLOAD_NAMES",
]


def list_engines(survey_only: bool = False) -> List[Dict[str, Any]]:
    """Describe every registered engine (name, key size, section, summary)."""
    return [
        {
            "name": name,
            "key_bytes": spec.key_bytes,
            "section": spec.section,
            "summary": spec.summary,
            "defaults": dict(spec.defaults),
        }
        for name, spec in sorted(ENGINE_SPECS.items())
        if spec.survey or not survey_only
    ]


# -- experiments ----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """One registry experiment's complete outcome, typed.

    ``tasks`` maps task name to that task's metrics dict (the same shape
    the bench documents commit); ``observability`` carries the per-task
    and aggregate event counters from the run's :class:`CounterSink`.
    """

    experiment: str
    title: str
    section: str
    quick: bool
    checks: Dict[str, Any]
    tasks: Dict[str, Dict[str, Any]]
    observability: Dict[str, Any]

    @property
    def passed(self) -> bool:
        return self.checks.get("passed") in (True, None)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (mirrors one metrics-document entry)."""
        return {
            "title": self.title,
            "section": self.section,
            "checks": self.checks,
            "tasks": self.tasks,
            "observability": self.observability,
        }

    def to_document(self) -> Dict[str, Any]:
        """:meth:`to_dict` plus the experiment id and ``quick`` flag.

        The body the serve layer returns for a ``run_experiment`` request:
        the bench document's (canonical) entry plus those two keys.
        """
        return {"experiment": self.experiment, "quick": self.quick,
                **self.to_dict()}


@dataclass(frozen=True)
class TraceSummary:
    """The recorded head of an experiment's event stream, plus counters."""

    experiment: str
    events: Tuple[TraceEvent, ...]
    dropped: int
    counters: Dict[str, int]
    bytes_by_kind: Dict[str, int]
    totals: Dict[str, int]
    result: ExperimentResult

    @property
    def total_events(self) -> int:
        return len(self.events) + self.dropped

    def format(self) -> str:
        """Human-readable event-kind table for this capture."""
        sink = CounterSink()
        sink.counts.update(self.counters)
        sink.bytes_by_kind.update(self.bytes_by_kind)
        return format_counter_table(sink, title=f"{self.experiment} events")


def run_experiment(
    experiment_id: str,
    *,
    quick: bool = False,
    trace: Optional[EventSink] = None,
) -> ExperimentResult:
    """Run one registry experiment in-process; returns a typed result.

    Tasks run serially through the experiment runner's task body and
    entry builder, so the result is the bench documents' entry for this
    experiment.  ``trace`` optionally receives every simulator event the
    tasks emit (any :class:`repro.obs.EventSink` — a probe, a recorder,
    a JSONL file sink).
    """
    from .runner.experiments import get_experiment
    from .runner.runner import run_entry

    experiment = get_experiment(experiment_id)
    return ExperimentResult(experiment=experiment.id, quick=quick,
                            **run_entry(experiment, quick, trace))


def trace_experiment(
    experiment_id: str,
    *,
    quick: bool = True,
    max_events: Optional[int] = 10000,
) -> TraceSummary:
    """Run one experiment recording its event stream (quick by default).

    Keeps the first ``max_events`` events verbatim (the stream head shows
    how a run starts; ``dropped`` counts the rest) alongside the complete
    counter aggregation.
    """
    recording = RecordingSink(max_events=max_events)
    result = run_experiment(experiment_id, quick=quick, trace=recording)
    return TraceSummary(
        experiment=result.experiment,
        events=tuple(recording.events),
        dropped=recording.dropped,
        counters=recording.summary(),
        bytes_by_kind=recording.bytes_summary(),
        totals=observability_section(recording)["totals"],
        result=result,
    )


# -- design-space campaigns -----------------------------------------------


def run_campaign(
    spec: CampaignSpec,
    *,
    workers: int = 1,
    shards: Optional[int] = None,
    cache_dir: Optional[Path] = Path(".bench_campaign_cache"),
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignResult:
    """Run a sharded, resumable design-space sweep; returns typed results.

    ``spec`` declares the parameter grid (see
    :class:`repro.campaign.CampaignSpec`); the coordinator stride-
    partitions the expanded key space into ``shards`` and executes them
    on ``workers`` processes.  Metrics are byte-identical for any worker
    or shard count.  With a ``cache_dir``, completed points persist on
    disk and an interrupted sweep resumes from where it stopped —
    rerunning re-executes only the missing points.
    """
    from .campaign import CampaignCoordinator

    return CampaignCoordinator(
        spec, workers=workers, shards=shards, cache_dir=cache_dir,
        progress=progress,
    ).run()


# -- one-shot measurements ------------------------------------------------


def engine_overhead(
    engine: str,
    workload: str = "mixed",
    accesses: int = 4000,
    cache_size: int = 4096,
    mem_latency: int = 40,
    image_size: int = 32 * 1024,
    functional: bool = False,
    **engine_overrides: Any,
) -> OverheadResult:
    """Measure one engine's performance overhead on one named workload.

    ``workload`` accepts the synthetic suite names plus ``mcu-<kernel>``
    for real MCU traces.  ``functional=False`` (default) runs timing-only,
    which is what the survey's overhead numbers mean.
    """
    [result] = engine_overheads(
        [engine], workload, accesses, cache_size, mem_latency, image_size,
        functional, **engine_overrides,
    )
    return result


def engine_overheads(
    engines: Sequence[str],
    workload: str = "mixed",
    accesses: int = 4000,
    cache_size: int = 4096,
    mem_latency: int = 40,
    image_size: int = 32 * 1024,
    functional: bool = False,
    **engine_overrides: Any,
) -> Iterator[OverheadResult]:
    """:func:`engine_overhead` for several engines, lazily and in order:
    one trace and one plaintext baseline price them all."""
    if workload.startswith("mcu-"):
        trace = mcu_workload(workload[4:], repeat=5)
    else:
        trace = [
            type(a)(a.kind, a.addr % image_size, a.size)
            for a in make_workload(workload, n=accesses)
        ]
    return price_engines(
        [lambda name=name: make_engine(name, functional=functional,
                                       **engine_overrides)
         for name in engines],
        trace,
        workload,
        image=bytes(image_size),
        cache_config=CacheConfig(size=cache_size, line_size=32,
                                 associativity=2),
        mem_config=MemoryConfig(size=1 << 21, latency=mem_latency),
    )


def stream_system(engine: Optional[str], *, cache_size: int,
                  mem_latency: int, image_size: int,
                  functional: Optional[bool],
                  **engine_overrides: Any):
    """Build the system :func:`run_stream` executes on, image installed.

    2-way set-associative caches with 32-byte lines, a 2 MiB memory and
    a zeroed ``image_size``-byte image; ``engine=None`` is the plaintext
    baseline.  The serve layer's trace sessions build theirs here too,
    so a session fed the same accesses lands on the same metrics.
    An engine with a ``region_lines`` default (the address scrambler)
    gets the smallest power of two >= 4 lines covering the image unless
    the caller passes one.
    """
    from .sim import SecureSystem

    if (engine and "region_lines" in get_spec(engine).defaults
            and "region_lines" not in engine_overrides):
        lines = max(4, -(-image_size // 32))
        engine_overrides["region_lines"] = 1 << (lines - 1).bit_length()
    system = SecureSystem(
        engine=make_engine(engine, functional=functional,
                           **engine_overrides) if engine else None,
        cache_config=CacheConfig(size=cache_size, line_size=32,
                                 associativity=2),
        mem_config=MemoryConfig(size=1 << 21, latency=mem_latency),
    )
    system.install_image(0, bytes(image_size))
    return system


def run_stream(
    engine: Optional[str] = None,
    workload: str = "mixed",
    accesses: int = 200_000,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    seed: int = 2005,
    cache_size: int = 4096,
    mem_latency: int = 40,
    image_size: int = 32 * 1024,
    functional: bool = False,
    **engine_overrides: Any,
) -> Dict[str, Any]:
    """Run one engine over a chunk-streamed workload; canonical metrics.

    The workload is generated lazily and executed ``chunk_size`` accesses
    at a time, so ``accesses`` can be 10^8+ without the trace ever being
    materialized.  ``chunk_size=0`` materializes the whole trace instead
    (the equality leg for tests) — the returned metrics are byte-identical
    either way, at any chunk size.  ``engine=None`` runs the plaintext
    baseline; ``workload`` accepts :data:`STREAM_WORKLOAD_NAMES` (the
    named suite plus the long-horizon ``phased`` / ``multi-tenant`` /
    ``dma-burst`` generators) and ``mcu-<kernel>``.

    Returns a canonical document (:func:`repro.runner.stable_floats` of a
    JSON round trip) — the same bytes the serve layer's ``run_stream`` op
    responds with.
    """
    if chunk_size < 0:
        raise ValueError(f"chunk_size must be >= 0, got {chunk_size}")
    if accesses <= 0:
        raise ValueError(f"accesses must be positive, got {accesses}")
    is_mcu = workload.startswith("mcu-")
    if not is_mcu and workload not in STREAM_WORKLOAD_NAMES:
        raise KeyError(
            f"unknown workload {workload!r}; choose from "
            f"{STREAM_WORKLOAD_NAMES} or mcu-<kernel>"
        )

    def accesses_iter():
        source = (mcu_workload(workload[4:], repeat=5) if is_mcu
                  else iter_workload(workload, n=accesses, seed=seed))
        for a in source:
            yield type(a)(a.kind, a.addr % image_size, a.size)

    system = stream_system(engine, cache_size=cache_size,
                           mem_latency=mem_latency, image_size=image_size,
                           functional=functional, **engine_overrides)
    label = engine or "baseline"
    from .traces.workloads import ARRAY_STREAM_NAMES, array_stream_workload

    if chunk_size == 0:
        trace = list(accesses_iter())
    elif workload in ARRAY_STREAM_NAMES:
        # Array-native chunks: the same DRBG draws as accesses_iter(),
        # with the address fold vectorized instead of per access.
        trace = array_stream_workload(workload, n=accesses, seed=seed,
                                      chunk_size=chunk_size,
                                      addr_mod=image_size)
    else:
        trace = TraceStream(lambda: chunked(accesses_iter(), chunk_size))
    report = system.run(trace, label=label)
    doc = {
        "engine": label,
        "workload": workload,
        "seed": seed,
        "chunk_size": chunk_size,
        "metrics": report.to_metrics(),
    }
    return stable_floats(json.loads(json.dumps(doc)))


def attack_summary(memory: int = 512, seed: int = 2005,
                   verbose: bool = False) -> Dict[str, Any]:
    """Run Kuhn's Cipher Instruction Search against a DS5002FP-class board.

    Returns a JSON-serializable summary (recovered bytes, probe runs,
    ambiguous cells, full recovery flag).  Raises ``ValueError`` for a
    ``memory`` outside [5, 0x10000]: the board addresses 16 bits and the
    dump gadget needs five cells.
    """
    from .attacks import DallasBoard, KuhnAttack
    from .crypto import DRBG, SmallBlockCipher
    from .isa import assemble, secret_table_program

    firmware = assemble(
        secret_table_program(seed=seed, table_len=64), size=memory
    )
    board = DallasBoard(
        SmallBlockCipher(DRBG(seed).random_bytes(16)),
        firmware, memory_size=memory,
    )
    report = KuhnAttack(board, verbose=verbose).run()
    recovered = sum(a == b for a, b in zip(report.plaintext, firmware))
    return {
        "memory_bytes": memory,
        "bytes_recovered": recovered,
        "fully_recovered": recovered == memory,
        "probe_runs": report.probe_runs,
        "steps_executed": report.steps_executed,
        "ambiguous_cells": len(report.ambiguous_cells),
    }


def fault_campaign(
    engine: str,
    kinds: Optional[List[Optional[str]]] = None,
    *,
    seed: int = 2005,
    quick: bool = True,
) -> List[Any]:
    """Run deterministic fault-injection campaigns against one engine.

    ``engine`` is a campaign label (:func:`repro.faults.campaign_labels`:
    every registry name plus the ablations).  ``kinds`` selects the fault
    classes — entries from :data:`repro.faults.FAULT_KINDS`, with ``None``
    meaning the fault-free baseline; the default runs the baseline and all
    four classes.  Returns the :class:`repro.faults.CampaignResult` list
    in the order requested; each result's ``verdict``/``conforms`` say
    whether the engine behaved as its ``detects`` claim promises.
    """
    from .faults import FAULT_KINDS, campaign_labels
    from .faults import run_campaign as faults_run_campaign

    labels = campaign_labels()
    if engine not in labels:
        raise KeyError(
            f"unknown campaign label {engine!r}; known: {', '.join(labels)}"
        )
    selected = list(kinds) if kinds is not None else [None, *FAULT_KINDS]
    return [
        faults_run_campaign(engine, kind, seed=seed, quick=quick)
        for kind in selected
    ]

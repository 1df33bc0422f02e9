"""Turning raw event counters into the metrics documents' shape.

:func:`observability_section` is the single definition of the
``observability`` block that appears in ``repro-bench-metrics/3``
documents and in :class:`repro.api.ExperimentResult` — the runner, the
facade and the CLI all call this so the shape can never drift between
them.  Everything in it is derived from a :class:`CounterSink`, so it is
deterministic whenever the underlying simulation is.
"""

from __future__ import annotations

from typing import Dict

from .events import BUS_KINDS, CIPHER_KINDS, FAULT_KINDS
from .sinks import TallySink

__all__ = ["observability_section", "merge_observability",
           "format_counter_table"]


def _section(counts: Dict[str, int], nbytes: Dict[str, int]
             ) -> Dict[str, object]:
    return {
        "counters": {k: counts[k] for k in sorted(counts)},
        "bytes_by_kind": {k: nbytes[k] for k in sorted(nbytes)},
        "totals": {
            "events": sum(counts.values()),
            "bus_transactions": sum(counts.get(k, 0) for k in BUS_KINDS),
            "bus_bytes": sum(nbytes.get(k, 0) for k in BUS_KINDS),
            "cache_hits": counts.get("hit", 0),
            "cache_misses": counts.get("miss", 0),
            "lines_enciphered": sum(counts.get(k, 0) for k in CIPHER_KINDS),
            "bytes_enciphered": sum(nbytes.get(k, 0) for k in CIPHER_KINDS),
            "integrity_checks": counts.get("integrity-check", 0),
            "stall_cycles": nbytes.get("stall", 0),
            "faults_injected": counts.get(FAULT_KINDS[0], 0),
            "faults_detected": counts.get(FAULT_KINDS[1], 0),
            "faults_silent": counts.get(FAULT_KINDS[2], 0),
        },
    }


def observability_section(sink: TallySink) -> Dict[str, object]:
    """The deterministic ``observability`` block for one counting sink."""
    return _section(sink.summary(), sink.bytes_summary())


def merge_observability(sections) -> Dict[str, object]:
    """Aggregate several ``observability`` blocks (e.g. one per task).

    Counters and byte totals sum; the derived totals are recomputed from
    the merged counters, so a merge of merges stays consistent.
    """
    counts: Dict[str, int] = {}
    nbytes: Dict[str, int] = {}
    for section in sections:
        for kind, n in section.get("counters", {}).items():
            counts[kind] = counts.get(kind, 0) + n
        for kind, n in section.get("bytes_by_kind", {}).items():
            nbytes[kind] = nbytes.get(kind, 0) + n
    return _section(counts, nbytes)


def format_counter_table(sink: CounterSink, title: str = "Events") -> str:
    """Human-readable kind/count/bytes table for trace summaries."""
    from ..analysis import format_table

    rows = [
        [kind, count, sink.bytes_by_kind.get(kind, 0) or ""]
        for kind, count in sorted(sink.counts.items())
    ]
    return format_table(["event kind", "count", "bytes"], rows, title=title)

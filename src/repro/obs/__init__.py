"""Structured observability for the simulator: events, sinks, scopes.

The survey's claims are all claims about *observable* behaviour —
miss-path latency, bus transactions an adversary can probe, cache hit
rates — so the simulator announces every such fact as a typed
:class:`TraceEvent` on its way past.  This package is the one place those
events are defined (:mod:`repro.obs.events`), consumed
(:mod:`repro.obs.sinks`), attached (:mod:`repro.obs.scope`) and reduced
to metrics (:mod:`repro.obs.summary`):

* the data path (``repro.sim``, the engine call sites in ``repro.core``)
  reports events to an optional sink — one ``is None`` test when disabled
  (``python -m repro.obs.bench`` verifies the cost);
* sinks subclass :class:`EventSink`.  Sites call
  :meth:`EventSink.note` with an event's fields; sinks that keep events
  (``keeps_events``) implement :meth:`EventSink.emit` and get a
  :class:`TraceEvent` built by the base ``note``, while count-only sinks
  (:class:`CounterSink`, :class:`NullSink`) override ``note`` and never
  see one;
* sinks are the one way to watch the simulator: the bus probe
  (:class:`repro.attacks.probe.BusProbe`) is a sink over the *same*
  stream, so "what the adversary sees" and "what we measure" are one
  code path, and :class:`TeeSink` fans the stream out when a run needs
  both;
* the experiment runner wraps every task in :func:`scope` with a
  :class:`CounterSink` and merges the result into the
  ``repro-bench-metrics/3`` document's ``observability`` section;
* the fault-injection layer (:mod:`repro.faults`) emits
  ``fault.injected`` / ``fault.detected`` / ``fault.silent`` on the same
  stream, so active-attack campaigns are observable like everything else.
"""

from .events import (
    BUS_KINDS,
    CACHE_KINDS,
    CIPHER_KINDS,
    EVENT_KINDS,
    FAULT_KINDS,
    TraceEvent,
)
from .scope import current_sink, scope
from .sinks import (
    CounterSink,
    EventSink,
    JsonlSink,
    NullSink,
    RecordingSink,
    RingBufferSink,
    TallySink,
    TeeSink,
    no_events,
    replay,
)
from .summary import (
    format_counter_table,
    merge_observability,
    observability_section,
)

__all__ = [
    "TraceEvent", "EVENT_KINDS", "BUS_KINDS", "CACHE_KINDS", "CIPHER_KINDS",
    "FAULT_KINDS",
    "EventSink", "NullSink", "TallySink", "CounterSink", "RingBufferSink",
    "RecordingSink", "JsonlSink", "TeeSink", "replay", "no_events",
    "scope", "current_sink",
    "observability_section", "merge_observability", "format_counter_table",
]

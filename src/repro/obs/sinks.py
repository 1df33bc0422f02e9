"""Pluggable consumers for the simulator's event stream.

Sinks subclass :class:`EventSink`.  The data path holds an
``Optional[EventSink]``, guards every site with one ``is None`` test (so
the disabled path costs a single attribute check, verified by
``python -m repro.obs.bench``) and reports each event through
:meth:`EventSink.note`, passing the event's fields.  Sinks that keep
events (``keeps_events`` True) implement :meth:`EventSink.emit` and get a
:class:`TraceEvent` built by the base ``note``; count-only sinks
(:class:`CounterSink`, :class:`NullSink`) override ``note`` and never see
one.  The built-ins cover the common shapes:

* :class:`NullSink` — accepts and discards (count-only floor);
* :class:`CounterSink` — aggregate counters, the runner's default;
* :class:`RingBufferSink` — last-N events, for flight-recorder debugging;
* :class:`RecordingSink` — first-N events plus counters, for traces;
* :class:`JsonlSink` — one JSON object per event, for offline analysis;
* :class:`TeeSink` — fan one stream out to several sinks.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from typing import (
    IO, Callable, Deque, Dict, Iterable, List, Optional, Union,
)

from .events import TraceEvent

__all__ = [
    "EventSink", "NullSink", "TallySink", "CounterSink", "RingBufferSink",
    "RecordingSink", "JsonlSink", "TeeSink", "replay", "no_events",
]


class EventSink:
    """Base sink: receives every event the simulator reports.

    Subclass and override :meth:`emit` to keep events.  A sink that only
    aggregates sets ``keeps_events = False`` and overrides :meth:`note`
    and :meth:`emit_bulk` instead, so no :class:`TraceEvent` is built for
    it.  Sinks are pure observers — they must never mutate simulator
    state, and the simulator never reads them.
    """

    #: Whether this sink needs the events themselves.  When False, the
    #: batched executor (:mod:`repro.sim.fastpath`) keeps per-kind tallies
    #: of its per-access events and hands them over through
    #: :meth:`emit_bulk` at the end of a run, and the port layers (engine
    #: fill and store, memory, bus) hand over one tally per kind per
    #: group of lines.
    keeps_events = True

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def note(self, kind: str, addr: int = 0, size: int = 0, cycle: int = 0,
             detail: str = "", data: bytes = b"") -> None:
        """Report one event by its fields; the one entry point for sites.

        The base method builds the :class:`TraceEvent` and passes it to
        :meth:`emit`; count-only sinks override it to skip the record.
        """
        event = TraceEvent(kind, addr, size, cycle, detail, data)
        self.emit(event)

    def emit_bulk(self, kind: str, count: int, total_size: int,
                  events: Callable[[], Iterable[TraceEvent]]) -> None:
        """Aggregated emission of ``count`` same-kind events.

        The batched fast path (:mod:`repro.sim.fastpath`) reports whole
        runs of cache hits to an event-keeping sink through this hook,
        and hands a count-only sink one tally per per-access kind at the
        end of a run; the port layers hand a count-only sink one tally
        per kind per fill or spill group.  ``events`` is a zero-argument
        callable producing the individual events; it may be invoked more
        than once (e.g. under a :class:`TeeSink` fanning out to two
        event-keeping sinks).

        Contract: for any sink, ``emit_bulk(kind, n, total, events)``
        must leave the same *aggregate* state (counts, byte totals) as
        ``n`` individual :meth:`note` calls; event-keeping sinks also
        store the same events, though batches of different kinds may be
        stored grouped rather than interleaved.  A sink whose
        ``keeps_events`` is False must never invoke ``events``: for a
        tally there are no events behind it, and the executor passes a
        callable that raises.
        """
        for event in events():
            self.emit(event)

    def close(self) -> None:
        """Release any resources (file sinks override)."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def no_events() -> Iterable[TraceEvent]:
    """The ``events`` argument of a tally handed to a count-only sink.

    There are no events behind a tally, so a sink whose ``keeps_events``
    is False must never call it (see :meth:`EventSink.emit_bulk`).
    """
    raise RuntimeError("a sink whose keeps_events is False asked for the "
                       "events behind a tally")


class NullSink(EventSink):
    """Accepts every event and keeps nothing.

    Exists so the micro-benchmark can separate the cost of *reaching* a
    count-only sink (one ``note`` call per site, the executor's tallies)
    from the cost of *aggregating*.
    """

    keeps_events = False

    def emit(self, event: TraceEvent) -> None:
        pass

    def note(self, kind: str, addr: int = 0, size: int = 0, cycle: int = 0,
             detail: str = "", data: bytes = b"") -> None:
        pass

    def emit_bulk(self, kind: str, count: int, total_size: int,
                  events: Callable[[], Iterable[TraceEvent]]) -> None:
        pass


class TallySink(EventSink):
    """Per-kind event counts and byte totals, and the accessors over them.

    The state :class:`CounterSink` and the event-keeping
    :class:`RingBufferSink` and :class:`RecordingSink` share.  It keeps
    the base ``keeps_events``, :meth:`~EventSink.note` and
    :meth:`~EventSink.emit_bulk`, so a subclass that overrides
    :meth:`emit` sees every event; only :class:`CounterSink` opts out.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()

    def emit(self, event: TraceEvent) -> None:
        self.counts[event.kind] += 1
        if event.size:
            self.bytes_by_kind[event.kind] += event.size

    def get(self, kind: str) -> int:
        """Count for one kind (0 if never seen)."""
        return self.counts.get(kind, 0)

    def bytes_for(self, kind: str) -> int:
        """Bytes moved under one kind (0 if never seen)."""
        return self.bytes_by_kind.get(kind, 0)

    def summary(self) -> Dict[str, int]:
        """Counts as a plain dict (stable, sorted by kind)."""
        return {kind: self.counts[kind] for kind in sorted(self.counts)}

    def bytes_summary(self) -> Dict[str, int]:
        """Byte totals as a plain dict (stable, sorted by kind)."""
        return {kind: self.bytes_by_kind[kind]
                for kind in sorted(self.bytes_by_kind)}


class CounterSink(TallySink):
    """Counts events by kind and sums the bytes they moved.

    This is the aggregation the experiment runner attaches to every task:
    cheap enough to leave on, and its :meth:`summary` is deterministic for
    a deterministic simulation, so it can live inside committed metrics.
    It never builds a :class:`TraceEvent`: ``note`` and ``emit_bulk`` are
    counter adds.
    """

    keeps_events = False

    def note(self, kind: str, addr: int = 0, size: int = 0, cycle: int = 0,
             detail: str = "", data: bytes = b"") -> None:
        self.counts[kind] += 1
        if size:
            self.bytes_by_kind[kind] += size

    def emit_bulk(self, kind: str, count: int, total_size: int,
                  events: Callable[[], Iterable[TraceEvent]]) -> None:
        # The whole point of the hook: a run of n hits is two counter
        # adds, not n event constructions.
        self.counts[kind] += count
        if total_size:
            self.bytes_by_kind[kind] += total_size


class RingBufferSink(TallySink):
    """Counts everything, keeps only the most recent ``capacity`` events.

    The flight-recorder shape: bounded memory no matter how long the run,
    with the tail of the stream available when something goes wrong.
    """

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)

    def emit(self, event: TraceEvent) -> None:
        super().emit(event)
        self.events.append(event)

    @property
    def dropped(self) -> int:
        """Events that fell off the front of the ring."""
        return sum(self.counts.values()) - len(self.events)


class RecordingSink(TallySink):
    """Counts *and* keeps the full event list (bounded by ``max_events``).

    Unlike the ring buffer this keeps the *head* of the stream — the shape
    trace dumps want, where the interesting part is how a run starts.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        super().__init__()
        self.events: List[TraceEvent] = []
        self.max_events = max_events
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        super().emit(event)
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)


class JsonlSink(EventSink):
    """Streams every event as one JSON object per line.

    Accepts a path (opened and owned, closed by :meth:`close`) or an
    already-open text file object (borrowed, left open).
    """

    def __init__(self, target: Union[str, "IO[str]"]) -> None:
        if isinstance(target, (str, bytes)):
            self._fh = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._fh = target
            self._owned = False
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(json.dumps(event.to_json_dict(), sort_keys=True))
        self._fh.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owned and not self._fh.closed:
            self._fh.close()


class TeeSink(EventSink):
    """Fans one event stream out to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks: List[EventSink] = [s for s in sinks if s is not None]

    @property
    def keeps_events(self) -> bool:
        """True if any child keeps events."""
        return any(sink.keeps_events for sink in self.sinks)

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def note(self, kind: str, addr: int = 0, size: int = 0, cycle: int = 0,
             detail: str = "", data: bytes = b"") -> None:
        for sink in self.sinks:
            sink.note(kind, addr, size, cycle, detail, data)

    def emit_bulk(self, kind: str, count: int, total_size: int,
                  events: Callable[[], Iterable[TraceEvent]]) -> None:
        for sink in self.sinks:
            sink.emit_bulk(kind, count, total_size, events)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def replay(events: Iterable[TraceEvent], sink: EventSink) -> EventSink:
    """Feed a recorded event sequence into a sink; returns the sink."""
    for event in events:
        sink.emit(event)
    return sink

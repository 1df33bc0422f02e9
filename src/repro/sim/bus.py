"""Processor-memory bus: traffic counters and ``bus-read``/``bus-write``
events.

"The main problem is that data and instructions are constantly exchanged
between memory and CPU in clear form on the bus" — the bus is where the
survey's adversary sits.  Every transfer is announced to the bus's
:class:`repro.obs.EventSink` as a ``bus-read`` or ``bus-write`` event
carrying exactly the bytes that cross the chip boundary: ciphertext when
an engine is present, plaintext when not.  A probe is a sink over those
events (:class:`repro.attacks.probe.BusProbe`); an attacker driving the
wires is a :class:`~repro.sim.memory.MainMemory` interposer.

Transfers come in groups, a fill or spill group of lines: the group
shares one cycle stamp, and a count-only sink gets one
``bus-read``/``bus-write`` tally per group (:meth:`Bus.tally`), while a
sink that keeps events still gets one event per :meth:`Bus.transfer`, in
order.  Only :class:`repro.core.engine.MemoryPort` drives the bus
(``make lint``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import EventSink, no_events

__all__ = ["BusTransaction", "Bus"]

#: The event kind of each bus op.
_KINDS = {"read": "bus-read", "write": "bus-write"}


@dataclass(frozen=True)
class BusTransaction:
    """One observable transfer on the external bus."""

    op: str            # "read" (memory -> chip) or "write" (chip -> memory)
    addr: int
    data: bytes
    cycle: int         # CPU cycle at which the transfer started


class Bus:
    """External bus: counts traffic and announces every transfer.

    :meth:`transfer` is one transfer; :meth:`tally` hands a count-only
    sink a group's transfers at once.
    """

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.transactions = 0
        self.bytes_transferred = 0
        self.sink = sink

    def transfer(self, op: str, addr: int, data: bytes, cycle: int) -> None:
        """Announce a transfer of ``data`` at ``addr``: counted, and a
        ``bus-<op>`` event to a sink that keeps events.  A count-only
        sink gets no call here: :meth:`tally` hands it a group's
        transfers."""
        kind = _KINDS.get(op)
        if kind is None:
            raise ValueError(f"unknown bus op {op!r}")
        self.transactions += 1
        self.bytes_transferred += len(data)
        sink = self.sink
        if sink is not None and sink.keeps_events:
            # The event carries the payload itself (a reference, not a
            # copy): sinks standing in for board-level probes see exactly
            # the bytes that crossed the chip boundary.
            sink.note(kind, addr=addr, size=len(data), cycle=cycle,
                      data=data)

    def tally(self, op: str, count: int, nbytes: int) -> None:
        """Hand a count-only sink the ``bus-<op>`` tally of ``count``
        transfers moving ``nbytes``: a group's, once per group."""
        sink = self.sink
        if count and sink is not None and not sink.keeps_events:
            sink.emit_bulk(_KINDS[op], count, nbytes, no_events)

    def reset_stats(self) -> None:
        self.transactions = 0
        self.bytes_transferred = 0

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import EventSink

__all__ = ["BusTransaction", "Bus"]


@dataclass(frozen=True)
class BusTransaction:
    """One observable transfer on the external bus."""

    op: str            # "read" (memory -> chip) or "write" (chip -> memory)
    addr: int
    data: bytes
    cycle: int         # CPU cycle at which the transfer started


class Bus:
    """External bus: counts traffic and emits one event per transfer."""

    def __init__(self, sink: Optional[EventSink] = None) -> None:
        self.transactions = 0
        self.bytes_transferred = 0
        self.sink = sink

    def transfer(self, op: str, addr: int, data: bytes, cycle: int) -> None:
        """Announce a transfer of ``data`` at ``addr``."""
        if op not in ("read", "write"):
            raise ValueError(f"unknown bus op {op!r}")
        self.transactions += 1
        self.bytes_transferred += len(data)
        if self.sink is not None:
            # The event carries the payload itself (a reference, not a
            # copy): sinks standing in for board-level probes see exactly
            # the bytes that crossed the chip boundary.
            self.sink.note(f"bus-{op}", addr=addr, size=len(data),
                           cycle=cycle, data=data)

    def reset_stats(self) -> None:
        self.transactions = 0
        self.bytes_transferred = 0

"""Passive bus probe.

"Observing both memory content and system execution can be done through
simple board-level probing at almost no cost" — this is that probe.  The
probe is an :class:`repro.obs.EventSink`: pass it as the ``sink=`` of a
:class:`repro.sim.system.SecureSystem` (or install it ambiently with
:func:`repro.obs.scope`) and it records every bus transfer crossing the
chip boundary, exactly as a logic analyzer on the PCB traces would.  To
keep another sink on the same system, fan out with
:class:`repro.obs.TeeSink`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..obs import EventSink, TraceEvent
from ..sim.bus import BusTransaction

__all__ = ["BusProbe"]


class BusProbe(EventSink):
    """Records bus transactions for offline analysis.

    As an event sink the probe sees the full trace stream but keeps only
    the chip-boundary transfers (``bus-read`` / ``bus-write`` events) —
    a board-level attacker cannot see cache hits or cipher internals.
    """

    def __init__(self, max_transactions: Optional[int] = None):
        self.transactions: List[BusTransaction] = []
        self.max_transactions = max_transactions

    def emit(self, event: TraceEvent) -> None:
        if event.kind == "bus-read" or event.kind == "bus-write":
            if self.max_transactions is None or \
                    len(self.transactions) < self.max_transactions:
                self.transactions.append(BusTransaction(
                    op=event.kind[4:], addr=event.addr, data=event.data,
                    cycle=event.cycle,
                ))

    # -- reconstruction helpers ------------------------------------------

    def observed_bytes(self, op: Optional[str] = None) -> bytes:
        """Concatenated payloads (optionally restricted to reads or writes)."""
        return b"".join(
            t.data for t in self.transactions if op is None or t.op == op
        )

    def reconstruct_memory(self) -> Dict[int, bytes]:
        """Rebuild the attacker's view of memory from observed transfers.

        Later transfers overwrite earlier ones — the attacker ends up with
        the freshest bytes seen at each address.
        """
        view: Dict[int, bytes] = {}
        for txn in self.transactions:
            view[txn.addr] = txn.data
        return view

    def address_histogram(self) -> Counter:
        """How often each address was touched — the access-pattern leak.

        Even a perfect cipher leaves addresses in clear on a conventional
        bus; this is the residual leakage every surveyed engine shares.
        """
        return Counter(t.addr for t in self.transactions)

    def repeated_payloads(self) -> Counter:
        """Payloads seen more than once (the ECB-style determinism leak)."""
        counts = Counter(t.data for t in self.transactions)
        return Counter({d: c for d, c in counts.items() if c > 1})

    @property
    def bytes_observed(self) -> int:
        return sum(len(t.data) for t in self.transactions)

    def clear(self) -> None:
        self.transactions.clear()

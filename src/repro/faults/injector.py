"""The fault injector: an active interposer on the memory/bus layer.

:class:`FaultInjector` implements the :data:`repro.sim.memory.Interposer`
protocol and attaches to a :class:`repro.sim.memory.MainMemory` — from
that point it sees every access the engine's
:class:`~repro.core.engine.MemoryPort` services, counts them, and applies
its :class:`~repro.faults.plan.FaultPlan`\\ s when their triggers fire:

* ``spoof``/``splice`` rewrite the stored bytes (board-level memory
  modification — persistent until overwritten);
* ``replay`` rolls the entire memory array back to a snapshot the
  attacker recorded earlier (:meth:`FaultInjector.snapshot`): every page
  touched since the memory was made gets its snapshot bytes back, or
  zeros if it was untouched when the snapshot was taken;
* ``glitch`` flips bits only in the data *returned* to the chip — a
  transient wire fault the stored copy never sees.

Every applied fault reports a ``fault.injected`` event to the sink and
is appended to :attr:`FaultInjector.faults`, so campaigns and counters
agree on what happened.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..crypto import DRBG
from ..obs import current_sink
from .plan import FaultPlan

__all__ = ["FaultInjector", "FaultRecord", "ReadRecorder"]


class FaultRecord(NamedTuple):
    """One fault that actually fired."""

    kind: str          # plan kind
    addr: int          # plan window base
    size: int          # plan window size
    op_index: int      # memory-operation count at injection time
    read_addr: int     # the read that triggered it
    read_size: int


class ReadRecorder:
    """Passive interposer logging every read window (recon helper).

    Campaigns use it to learn an engine's *physical* access pattern — an
    address-scrambled or compressed engine does not fetch the logical
    target address, and the attacker (who only sees the bus) targets what
    actually crosses it.
    """

    def __init__(self, memory) -> None:
        self.memory = memory
        self.reads: List[Tuple[int, int]] = []

    def __call__(self, op: str, addr: int, data: bytes) -> bytes:
        if op == "read":
            self.reads.append((addr, len(data)))
        return data

    def __enter__(self) -> "ReadRecorder":
        self.memory.attach_interposer(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.memory.detach_interposer(self)


class FaultInjector:
    """Applies :class:`FaultPlan`\\ s to a :class:`MainMemory`'s traffic.

    Use as a context manager (attaches/detaches the interposer), or call
    :meth:`attach`/:meth:`detach` explicitly.  ``sink`` defaults to the
    ambient :func:`repro.obs.current_sink` at construction.
    """

    def __init__(self, memory, plans: Sequence[FaultPlan] = (),
                 sink=None) -> None:
        self.memory = memory
        self.plans: List[FaultPlan] = list(plans)
        self.sink = sink if sink is not None else current_sink()
        self.faults: List[FaultRecord] = []
        self.ops = 0
        self._armed = False
        self._fired: set = set()
        self._eligible_reads: Dict[int, int] = {}
        self._snapshot: Optional[Dict[int, bytes]] = None

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "FaultInjector":
        self.memory.attach_interposer(self)
        return self

    def detach(self) -> None:
        self.memory.detach_interposer(self)

    def __enter__(self) -> "FaultInjector":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- script-level triggers ---------------------------------------------

    def arm(self) -> None:
        """Let armed-mode plans fire on their next eligible read."""
        self._armed = True

    def disarm(self) -> None:
        self._armed = False

    def snapshot(self) -> None:
        """Record the memory array (the attacker's board dump): its touched
        pages, since every other page reads as zeros.

        ``replay`` plans roll back to the most recent snapshot when they
        fire.  Call it at a quiescent script point so the recorded state
        is self-consistent (data *and* tags/tree nodes).
        """
        self._snapshot = dict(self.memory.touched_pages())

    @property
    def injected(self) -> int:
        """Faults applied so far."""
        return len(self.faults)

    # -- interposer protocol -----------------------------------------------

    def __call__(self, op: str, addr: int, data: bytes) -> bytes:
        self.ops += 1
        if op != "read":
            return data
        for index, plan in enumerate(self.plans):
            if index in self._fired or not plan.overlaps(addr, len(data)):
                continue
            if not self._triggered(index, plan):
                continue
            self._fired.add(index)
            data = self._apply(plan, addr, data)
            self.faults.append(FaultRecord(
                kind=plan.kind, addr=plan.addr, size=plan.size,
                op_index=self.ops, read_addr=addr, read_size=len(data),
            ))
            if self.sink is not None:
                self.sink.note("fault.injected", addr=plan.addr,
                               size=plan.size, detail=plan.kind)
        return data

    def _triggered(self, index: int, plan: FaultPlan) -> bool:
        if plan.nth_read is not None:
            count = self._eligible_reads.get(index, 0) + 1
            self._eligible_reads[index] = count
            return count == plan.nth_read
        if plan.after_ops is not None:
            return self.ops >= plan.after_ops
        return self._armed

    # -- fault application --------------------------------------------------

    def _apply(self, plan: FaultPlan, addr: int, data: bytes) -> bytes:
        if plan.kind == "spoof":
            forged = DRBG(plan.seed).random_bytes(plan.size)
            self.memory.load_image(plan.addr, forged)
            return self.memory.dump(addr, len(data))
        if plan.kind == "splice":
            donor_size = plan.source_size or plan.size
            donor = self.memory.dump(plan.source, donor_size)
            self.memory.load_image(plan.addr, donor[: plan.size])
            return self.memory.dump(addr, len(data))
        if plan.kind == "replay":
            if self._snapshot is None:
                raise RuntimeError(
                    "replay plan fired before any snapshot() was recorded"
                )
            for page_addr, page in self.memory.touched_pages():
                self.memory.load_image(page_addr, self._snapshot.get(
                    page_addr, bytes(len(page))))
            return self.memory.dump(addr, len(data))
        # glitch: transient — flip bits only in the returned beats that
        # overlap the plan window; memory keeps the clean bytes.
        lo = max(addr, plan.addr)
        hi = min(addr + len(data), plan.addr + plan.size)
        span_bits = (hi - lo) * 8
        rng = random.Random(plan.seed)
        flips = rng.sample(range(span_bits), min(plan.bits, span_bits))
        garbled = bytearray(data)
        base = lo - addr
        for bit in flips:
            garbled[base + bit // 8] ^= 1 << (bit % 8)
        return bytes(garbled)

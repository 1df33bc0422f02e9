"""The simulator's event taxonomy: one typed record per observable fact.

Everything the survey measures — and everything its adversary sees — is a
sequence of discrete hardware events: an access entering the memory
system, a cache line missing, ciphertext crossing the external bus, a
line going through the cipher, an integrity tag being checked.
:class:`TraceEvent` is the single record type all of them share, and
``EVENT_KINDS`` is the closed taxonomy of ``kind`` strings the simulator
emits.  Sinks (:mod:`repro.obs.sinks`) consume the stream; nothing in the
data path ever interprets it.

Sites report an event's fields through :meth:`repro.obs.EventSink.note`,
and a ``TraceEvent`` is built only for a sink that keeps events
(``keeps_events``); a count-only sink such as
:class:`~repro.obs.CounterSink` takes the fields, or the executor's
per-run tallies, without one.  ``TraceEvent`` is a ``NamedTuple`` rather
than a dataclass deliberately: an event-keeping sink gets millions of
these per full-length run, and tuple construction is the cheapest
structured record CPython offers.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

__all__ = ["TraceEvent", "EVENT_KINDS", "CIPHER_KINDS", "BUS_KINDS",
           "CACHE_KINDS", "FAULT_KINDS"]


class TraceEvent(NamedTuple):
    """One observable simulator event."""

    kind: str           # taxonomy entry, see EVENT_KINDS
    addr: int = 0       # byte address the event concerns (0 if n/a)
    size: int = 0       # bytes moved, or cycles for "stall"
    cycle: int = 0      # CPU cycle at emission (0 when no clock is wired)
    detail: str = ""    # free-form qualifier ("fetch", "ok", "tamper", ...)
    data: bytes = b""   # payload, where the event carries one (bus events)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serializable form (payload hex-encoded, empties dropped)."""
        doc: Dict[str, object] = {
            "kind": self.kind, "addr": self.addr, "size": self.size,
            "cycle": self.cycle,
        }
        if self.detail:
            doc["detail"] = self.detail
        if self.data:
            doc["data"] = self.data.hex()
        return doc


#: The closed event taxonomy: kind -> what it means.  Emit sites must use
#: one of these kinds so counter keys stay stable across the package.
EVENT_KINDS: Dict[str, str] = {
    # CPU boundary
    "access":          "one CPU access entering the memory system "
                       "(detail = fetch/load/store)",
    # cache outcomes
    "hit":             "cache hit (addr = accessed byte address)",
    "miss":            "cache miss",
    "eviction":        "a victim line left the cache",
    "writeback":       "a dirty victim was scheduled for external write",
    "fill":            "a line was fetched into the cache through the EDU",
    # chip boundary (what a board-level probe sees)
    "bus-read":        "bytes crossed the external bus, memory -> chip "
                       "(data = the observable payload)",
    "bus-write":       "bytes crossed the external bus, chip -> memory",
    "mem-read":        "external RAM serviced a read",
    "mem-write":       "external RAM serviced a write",
    # EDU internals
    "encipher":        "a line went through the cipher toward memory",
    "decipher":        "a line came through the cipher from memory",
    "rmw":             "a sub-block write forced read-modify-write (§2.2)",
    "integrity-check": "a MAC tag / Merkle path was verified "
                       "(detail = ok/tamper)",
    "stall":           "cycles the EDU added to the critical path "
                       "(size = cycles, detail = read/write/rmw)",
    # active attacks (repro.faults)
    "fault.injected":  "an active fault fired on the memory/bus layer "
                       "(detail = spoof/splice/replay/glitch)",
    "fault.detected":  "an engine's verdict path caught an injected fault "
                       "(detail = fault kind)",
    "fault.silent":    "an injected fault went undetected and corrupted "
                       "plaintext (detail = fault kind)",
    # protocol / attack side
    "protocol-msg":    "a message crossed the Figure-1 insecure channel",
    "probe-run":       "the attacker pulsed reset and single-stepped the "
                       "victim board (size = steps requested)",
    "mcu-step":        "one victim instruction executed under probing",
    "attack-phase":    "the Kuhn attack entered a new phase (detail)",
}

#: Kinds that move bytes through the cipher (bytes_enciphered totals).
CIPHER_KINDS = ("encipher", "decipher")
#: Kinds visible to a board-level bus probe.
BUS_KINDS = ("bus-read", "bus-write")
#: Cache-outcome kinds.
CACHE_KINDS = ("hit", "miss", "eviction", "writeback", "fill")
#: Active-attack kinds emitted by the fault-injection layer (repro.faults).
FAULT_KINDS = ("fault.injected", "fault.detected", "fault.silent")

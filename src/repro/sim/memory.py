"""External memory (RAM) model: functional storage plus access timing.

This is the memory the survey's attacker can read at leisure — board-level
probing "at almost no cost" — so it is fully functional: it stores the
actual (cipher)bytes the engine writes.  Timing is a fixed-latency plus
per-beat transfer model, which is enough to place the crossovers the survey
discusses (keystream generation vs fetch latency, compression beat savings
vs decompression latency).

The storage is an anonymous mapping that the kernel zero-fills page by
page on first touch, so a memory costs neither construction time nor RSS
for the pages a run never reads or writes: a design point that touches a
handful of lines of a 4 MiB memory pays for those pages only.  The memory
also keeps the set of :data:`PAGE_SIZE` pages that a write or an install
has touched (:meth:`MainMemory.touched_pages`), so whoever copies its state
— a fault rig's clone, the attacker's snapshot — copies those pages and
knows every other page reads as zeros.

Each access is one :meth:`MainMemory.read` or :meth:`MainMemory.write`
call, with its own range check, counter update, slice, interposer pass
and, for a sink that keeps events, event.  Accesses come in groups, a
fill or spill group of lines: a count-only sink gets one tally per group
(:meth:`MainMemory.tally`), and the group's timing is priced once, by
:class:`repro.core.engine.MemoryPort`, the only caller of all three
(``make lint``).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..obs import EventSink, no_events

#: An interposer rewrites the bytes of one access: ``fn(op, addr, data)``
#: returns the bytes the access proceeds with (``op`` is "read"/"write").
Interposer = Callable[[str, int, bytes], bytes]

#: The event kind of each memory op.
_KINDS = {"read": "mem-read", "write": "mem-write"}

#: Granularity (bytes) of the touched-page record.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

__all__ = ["MemoryConfig", "MainMemory", "Interposer", "PAGE_SIZE"]


@dataclass(frozen=True)
class MemoryConfig:
    """Timing and geometry of the external RAM and its bus.

    ``latency`` is the cycles from request to first data beat;
    ``bus_width`` the bytes moved per beat; ``cycles_per_beat`` the bus
    clock divider relative to the CPU clock.
    """

    size: int = 1 << 22            # 4 MiB
    latency: int = 40
    bus_width: int = 8
    cycles_per_beat: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"memory size must be positive, got {self.size}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.bus_width <= 0 or self.cycles_per_beat <= 0:
            raise ValueError("bus parameters must be positive")

    def beats(self, nbytes: int) -> int:
        """Bus beats needed to move ``nbytes``."""
        return -(-nbytes // self.bus_width)

    def transfer_cycles(self, nbytes: int) -> int:
        """Cycles occupied by the data transfer phase."""
        return self.beats(nbytes) * self.cycles_per_beat

    def read_cycles(self, nbytes: int) -> int:
        """Total cycles for a read of ``nbytes``."""
        return self.latency + self.transfer_cycles(nbytes)

    def write_cycles(self, nbytes: int) -> int:
        """Total cycles for a write of ``nbytes``."""
        return self.latency + self.transfer_cycles(nbytes)


class MainMemory:
    """Byte-addressable external RAM with functional contents.

    Attached **interposers** model an active (class II) attacker driving
    the bus: each sees every serviced access and may substitute the bytes
    a read returns or a write stores
    (:class:`repro.faults.FaultInjector` is the canonical one).  A read's
    substitute goes to the engine and leaves the array untouched, so a
    wire glitch is transient, which is how real bus glitching differs
    from rewriting the memory array.  An interposer sees the lines of a
    group one at a time, in order, each before the next is read or
    written, so a rewrite it makes on one line's access is seen by the
    later lines.  The bulk helpers ``load_image``/``dump`` bypass
    interposers — they are the offline install path and the attacker's
    own probe, not bus traffic.
    """

    def __init__(self, config: MemoryConfig = MemoryConfig(),
                 sink: Optional[EventSink] = None):
        self.config = config
        self._data = mmap.mmap(-1, config.size)
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.sink = sink
        self._interposers: List[Interposer] = []
        #: One byte per page, set once a write or load_image touches it
        #: (a few hundred bytes, where a set of page numbers grows to tens
        #: of kilobytes on a scattered workload).
        self._touched = bytearray(-(-config.size >> PAGE_SHIFT))

    def attach_interposer(self, interposer: Interposer) -> None:
        """Attach an active interposer to every subsequent read/write."""
        self._interposers.append(interposer)

    def detach_interposer(self, interposer: Interposer) -> None:
        self._interposers.remove(interposer)

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.config.size:
            raise self._outside(addr, nbytes)

    def _outside(self, addr: int, nbytes: int) -> IndexError:
        return IndexError(
            f"access [{addr}, {addr + nbytes}) outside memory of "
            f"{self.config.size} bytes"
        )

    def _interpose(self, op: str, addr: int, data: bytes) -> bytes:
        nbytes = len(data)
        for interposer in self._interposers:
            data = interposer(op, addr, data)
        if len(data) != nbytes:
            raise ValueError(
                f"interposer changed the length of the {op} at {addr:#x}: "
                f"{nbytes} bytes in, {len(data)} bytes out"
            )
        return data

    def read(self, addr: int, nbytes: int) -> bytes:
        """One functional read (no timing; timing comes from the config).

        Counted, announced to a sink that keeps events as a ``mem-read``
        event, then passed through every interposer.  A count-only sink
        gets no call here: :meth:`tally` hands it a group's reads at once.
        """
        if addr < 0 or addr + nbytes > self.config.size:
            raise self._outside(addr, nbytes)
        self.reads += 1
        self.bytes_read += nbytes
        sink = self.sink
        if sink is not None and sink.keeps_events:
            sink.note("mem-read", addr=addr, size=nbytes)
        data = self._data[addr: addr + nbytes]
        if self._interposers:
            data = self._interpose("read", addr, data)
        return data

    def write(self, addr: int, data: bytes) -> None:
        """One functional write: the dual of :meth:`read`."""
        nbytes = len(data)
        end = addr + nbytes
        if addr < 0 or end > self.config.size:
            raise self._outside(addr, nbytes)
        self.writes += 1
        self.bytes_written += nbytes
        sink = self.sink
        if sink is not None and sink.keeps_events:
            sink.note("mem-write", addr=addr, size=nbytes)
        if self._interposers:
            data = self._interpose("write", addr, data)
        self._data[addr: end] = data
        # One byte store for a write inside one page (12 is PAGE_SHIFT,
        # inlined on this hot path).
        page = addr >> 12
        if (end - 1) >> 12 == page:
            self._touched[page] = 1
        else:
            self._touch(addr, nbytes)

    def tally(self, op: str, count: int, nbytes: int) -> None:
        """Hand a count-only sink the ``mem-<op>`` tally of ``count``
        accesses moving ``nbytes``: a group's, once per group.  A sink
        that keeps events already got each access's event."""
        sink = self.sink
        if count and sink is not None and not sink.keeps_events:
            sink.emit_bulk(_KINDS[op], count, nbytes, no_events)

    def load_image(self, addr: int, image: bytes) -> None:
        """Bulk install without touching the access counters (offline load)."""
        self._check_range(addr, len(image))
        self._data[addr: addr + len(image)] = image
        self._touch(addr, len(image))

    def _touch(self, addr: int, nbytes: int) -> None:
        first = addr >> PAGE_SHIFT
        pages = ((addr + nbytes - 1) >> PAGE_SHIFT) + 1 - first
        self._touched[first: first + pages] = b"\x01" * pages

    def touched_pages(self) -> List[Tuple[int, bytes]]:
        """``(address, bytes)`` of every page a write or ``load_image`` has
        touched, in address order: the whole state, since every other page
        reads as zeros."""
        size = self.config.size
        return [(addr, self.dump(addr, min(PAGE_SIZE, size - addr)))
                for addr in (page << PAGE_SHIFT
                             for page, touched in enumerate(self._touched)
                             if touched)]

    def dump(self, addr: int, nbytes: int) -> bytes:
        """Bulk inspect without touching counters (the attacker's probe)."""
        self._check_range(addr, nbytes)
        return self._data[addr: addr + nbytes]

    def reset_stats(self) -> None:
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = 0

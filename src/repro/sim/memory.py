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
handful of lines of a 4 MiB memory pays for those pages only.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..obs import EventSink

#: An interposer rewrites the bytes of one access: ``fn(op, addr, data)``
#: returns the bytes the access proceeds with (``op`` is "read"/"write").
Interposer = Callable[[str, int, bytes], bytes]

__all__ = ["MemoryConfig", "MainMemory", "Interposer"]


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
    from rewriting the memory array.  The bulk helpers
    ``load_image``/``dump`` bypass interposers — they are the offline
    install path and the attacker's own probe, not bus traffic.
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

    def attach_interposer(self, interposer: Interposer) -> None:
        """Attach an active interposer to every subsequent read/write."""
        self._interposers.append(interposer)

    def detach_interposer(self, interposer: Interposer) -> None:
        self._interposers.remove(interposer)

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.config.size:
            raise IndexError(
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
        """Functional read (no timing; timing comes from the config)."""
        self._check_range(addr, nbytes)
        self.reads += 1
        self.bytes_read += nbytes
        if self.sink is not None:
            self.sink.note("mem-read", addr=addr, size=nbytes)
        data = self._data[addr: addr + nbytes]
        if self._interposers:
            data = self._interpose("read", addr, data)
        return data

    def write(self, addr: int, data: bytes) -> None:
        """Functional write."""
        self._check_range(addr, len(data))
        self.writes += 1
        self.bytes_written += len(data)
        if self.sink is not None:
            self.sink.note("mem-write", addr=addr, size=len(data))
        if self._interposers:
            data = self._interpose("write", addr, data)
        self._data[addr: addr + len(data)] = data

    def load_image(self, addr: int, image: bytes) -> None:
        """Bulk install without touching the access counters (offline load)."""
        self._check_range(addr, len(image))
        self._data[addr: addr + len(image)] = image

    def dump(self, addr: int, nbytes: int) -> bytes:
        """Bulk inspect without touching counters (the attacker's probe)."""
        self._check_range(addr, nbytes)
        return self._data[addr: addr + nbytes]

    def reset_stats(self) -> None:
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = 0

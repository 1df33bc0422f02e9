"""Per-line reference port: the oracle for the port layers' group calls.

:class:`ReferencePort` services every line on its own, the way the port
did before it gained group forms: each line pays its own cycle stamp and
timing arithmetic, and reports each of its memory and bus events through
``sink.note`` (so a count-only sink sees one ``note`` per event, not one
tally per group).  Its group
calls are lazy loops of one-line calls, so a caller's per-line work
(a ``_verify_fill`` that reads tags, a keeper's events) interleaves with
the lines exactly as it did.

Swap it in for a system's :class:`~repro.core.engine.MemoryPort` (it
subclasses it, so the executor still queues a line-independent engine's
spills) and the run must be observably identical: counters, stats,
verdicts, memory, every recorded event and every interposer call.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.core.engine import MemoryPort


def memory_read(memory, addr: int, nbytes: int) -> bytes:
    """One functional read, line by line (``MainMemory``'s state)."""
    memory._check_range(addr, nbytes)
    memory.reads += 1
    memory.bytes_read += nbytes
    if memory.sink is not None:
        memory.sink.note("mem-read", addr=addr, size=nbytes)
    data = memory._data[addr: addr + nbytes]
    if memory._interposers:
        data = memory._interpose("read", addr, data)
    return data


def memory_write(memory, addr: int, data: bytes) -> None:
    """One functional write, line by line."""
    memory._check_range(addr, len(data))
    memory.writes += 1
    memory.bytes_written += len(data)
    if memory.sink is not None:
        memory.sink.note("mem-write", addr=addr, size=len(data))
    if memory._interposers:
        data = memory._interpose("write", addr, data)
    memory._data[addr: addr + len(data)] = data


def bus_transfer(bus, op: str, addr: int, data: bytes, cycle: int) -> None:
    """One bus transfer, line by line (``Bus``'s state)."""
    if op not in ("read", "write"):
        raise ValueError(f"unknown bus op {op!r}")
    bus.transactions += 1
    bus.bytes_transferred += len(data)
    if bus.sink is not None:
        bus.sink.note(f"bus-{op}", addr=addr, size=len(data), cycle=cycle,
                      data=data)


class ReferencePort(MemoryPort):
    """A :class:`MemoryPort` that moves one line per call."""

    @classmethod
    def like(cls, port: MemoryPort) -> "ReferencePort":
        """The per-line twin of ``port``: same memory, bus and clock."""
        return cls(port.memory, port.bus, port._clock)

    def read(self, addr: int, nbytes: int) -> Tuple[bytes, int]:
        data = memory_read(self.memory, addr, nbytes)
        bus_transfer(self.bus, "read", addr, data, self._cycle())
        return data, self.memory.config.read_cycles(nbytes)

    def write(self, addr: int, data: bytes) -> int:
        memory_write(self.memory, addr, data)
        bus_transfer(self.bus, "write", addr, data, self._cycle())
        return self.memory.config.write_cycles(len(data))

    def read_lines(self, addrs: Sequence[int], nbytes: int
                   ) -> Iterator[Tuple[int, bytes, int]]:
        for addr in addrs:
            yield (addr,) + self.read(addr, nbytes)

    def write_lines(self, items: Sequence[Tuple[int, bytes]]
                    ) -> Iterator[Tuple[int, bytes, int]]:
        for addr, data in items:
            yield addr, data, self.write(addr, data)

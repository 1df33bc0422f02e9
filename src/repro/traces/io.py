"""Trace file I/O: the classic Dinero ``din`` text format and a compact
binary record format.

The din format is interop with the trace-driven-simulation ecosystem the
survey's era used: one access per line, ``<label> <hex address> [size]``,
where the label is 0 = data read, 1 = data write, 2 = instruction fetch.
Lines starting with ``#`` (and blank lines) are comments.

The binary format (:func:`save_trace_bin` / :func:`iter_trace_bin`) is
for long-horizon traces: a 6-byte magic followed by fixed 13-byte records
``>BQI`` (label, address, size).  Both formats read and write as bounded-
memory record streams — no whole-file ``read()`` anywhere — and any
truncated or corrupt trailing record raises :class:`TraceFormatError`
(one line, naming the record) rather than an opaque struct traceback.
The readers are the streams; ``list(iter_trace(path))`` loads a whole
file.

>>> from io import StringIO
>>> buf = StringIO()
>>> save_trace([Access(AccessKind.FETCH, 0x400, 4)], buf)
1
>>> buf.getvalue()
'2 400 4\\n'
"""

from __future__ import annotations

import struct
from typing import IO, Iterable, Iterator, Union

from .trace import Access, AccessKind

__all__ = ["save_trace", "iter_trace", "TraceFormatError",
           "save_trace_bin", "iter_trace_bin", "BTRC_MAGIC"]

_KIND_TO_LABEL = {
    AccessKind.LOAD: 0,
    AccessKind.STORE: 1,
    AccessKind.FETCH: 2,
}
_LABEL_TO_KIND = {v: k for k, v in _KIND_TO_LABEL.items()}


class TraceFormatError(ValueError):
    """Malformed din trace input."""


def save_trace(trace: Iterable[Access], destination: Union[str, IO]) -> int:
    """Write a trace in din format; returns the number of records."""
    own = isinstance(destination, str)
    stream = open(destination, "w") if own else destination
    count = 0
    try:
        for access in trace:
            label = _KIND_TO_LABEL[access.kind]
            stream.write(f"{label} {access.addr:x} {access.size}\n")
            count += 1
    finally:
        if own:
            stream.close()
    return count


def iter_trace(source: Union[str, IO]) -> Iterator[Access]:
    """Stream a din-format trace record by record (bounded memory).

    Tolerates the classic 2-column variant (size defaults to 4).  A
    malformed line raises :class:`TraceFormatError` naming the line.
    """
    own = isinstance(source, str)
    stream = open(source) if own else source
    try:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise TraceFormatError(
                    f"line {lineno}: expected 2 or 3 fields, got {len(parts)}"
                )
            try:
                label = int(parts[0])
                addr = int(parts[1], 16)
                size = int(parts[2]) if len(parts) == 3 else 4
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
            if label not in _LABEL_TO_KIND:
                raise TraceFormatError(
                    f"line {lineno}: unknown access label {label}"
                )
            if addr < 0 or size <= 0:
                raise TraceFormatError(
                    f"line {lineno}: invalid record "
                    f"(addr {addr:#x}, size {size})"
                )
            yield Access(_LABEL_TO_KIND[label], addr, size)
    finally:
        if own:
            stream.close()


# --------------------------------------------------------------------------
# Binary record format ("BTRC1"): fixed-width records for 10^8+ traces.
# --------------------------------------------------------------------------

#: File magic for the binary trace format.
BTRC_MAGIC = b"BTRC1\n"

#: One record: label byte, 64-bit address, 32-bit size (big-endian).
_RECORD = struct.Struct(">BQI")

#: Records read/written per block (bounds memory at ~832 KiB per block).
_BLOCK_RECORDS = 65536


def save_trace_bin(trace: Iterable[Access],
                   destination: Union[str, IO]) -> int:
    """Write a trace in the binary format; returns the record count.

    Accepts any access iterable (including a live generator) and writes
    in fixed-size blocks, so an unbounded trace streams straight to disk.
    """
    own = isinstance(destination, str)
    stream = open(destination, "wb") if own else destination
    count = 0
    pack = _RECORD.pack
    try:
        stream.write(BTRC_MAGIC)
        block = bytearray()
        for access in trace:
            block += pack(_KIND_TO_LABEL[access.kind], access.addr, access.size)
            count += 1
            if count % _BLOCK_RECORDS == 0:
                stream.write(block)
                block.clear()
        if block:
            stream.write(block)
    finally:
        if own:
            stream.close()
    return count


def iter_trace_bin(source: Union[str, IO]) -> Iterator[Access]:
    """Stream a binary-format trace record by record (bounded memory).

    A missing/garbled magic, an unknown label, or a truncated trailing
    record raises :class:`TraceFormatError` with a one-line message
    naming the offending record.
    """
    own = isinstance(source, str)
    stream = open(source, "rb") if own else source
    record_size = _RECORD.size
    try:
        magic = stream.read(len(BTRC_MAGIC))
        if magic != BTRC_MAGIC:
            raise TraceFormatError(
                f"not a binary trace: expected magic {BTRC_MAGIC!r}, "
                f"got {magic!r}"
            )
        record = 0
        pending = b""
        while True:
            block = stream.read(record_size * _BLOCK_RECORDS)
            if not block:
                break
            if pending:
                block = pending + block
                pending = b""
            whole = len(block) - len(block) % record_size
            for offset in range(0, whole, record_size):
                label, addr, size = _RECORD.unpack_from(block, offset)
                record += 1
                if label not in _LABEL_TO_KIND:
                    raise TraceFormatError(
                        f"record {record}: unknown access label {label}"
                    )
                if size <= 0:
                    raise TraceFormatError(
                        f"record {record}: invalid size {size}"
                    )
                yield Access(_LABEL_TO_KIND[label], addr, size)
            pending = block[whole:]
        if pending:
            raise TraceFormatError(
                f"record {record + 1}: truncated record "
                f"({len(pending)} of {record_size} bytes)"
            )
    finally:
        if own:
            stream.close()

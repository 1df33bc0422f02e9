"""Chunk streams: unbounded traces in bounded memory.

A :class:`TraceStream` is the streaming counterpart of a materialized
``Trace``: an ordered sequence of :class:`~repro.traces.trace.Access`
records delivered as *chunks* (lists) so that a 10^8–10^9-access
workload never exists in memory at once.
:func:`repro.sim.fastpath.execute` and :meth:`repro.sim.system.
SecureSystem.run` accept one anywhere a plain trace is accepted and
compile it chunk by chunk (``compile_trace`` passes a stream through
unchanged), with metrics byte-identical to the materialized path at any
chunk size (the carried-state invariants live in
:mod:`repro.sim.fastpath`).  A trace that arrives pushed rather than
pulled — frame by frame over a socket — skips the stream and feeds
:class:`repro.sim.StreamExecutor` directly.

Chunk sources come in two flavours:

* **replayable** — built from a zero-argument factory (or a concrete
  sequence of chunks): every call to :meth:`TraceStream.chunks` starts a
  fresh pass, so the same stream can drive a secured run and its
  plaintext baseline.  :func:`repro.traces.workloads.stream_workload`
  builds these.
* **one-shot** — built from a live iterator (a socket, a pipe, a
  generator already running).  A second pass raises a one-line
  ``RuntimeError`` instead of silently replaying nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Union

from .trace import Access

__all__ = ["TraceStream", "chunked", "DEFAULT_CHUNK_SIZE"]

#: Default accesses per chunk: large enough to amortize per-chunk
#: compile/dispatch cost, small enough that one chunk is a few MB.
DEFAULT_CHUNK_SIZE = 65536

#: Anything that can source chunks: a factory, a sequence of chunks, or
#: a live iterator of chunks.
ChunkSource = Union[
    Callable[[], Iterable[Sequence[Access]]],
    Sequence[Sequence[Access]],
    Iterator[Sequence[Access]],
]


def chunked(accesses: Iterable[Access],
            chunk_size: int = DEFAULT_CHUNK_SIZE
            ) -> Iterator[List[Access]]:
    """Group an access iterable into lists of ``chunk_size`` accesses."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    chunk: List[Access] = []
    append = chunk.append
    for access in accesses:
        append(access)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = []
            append = chunk.append
    if chunk:
        yield chunk


class TraceStream:
    """An ordered stream of ``Access`` chunks (see the module docstring).

    ``source`` may be a zero-argument factory returning a chunk
    iterable (replayable), a list/tuple of chunks (replayable), or a
    live chunk iterator (one-shot).  ``length``, when known, is the
    total access count — purely informational (progress displays);
    execution never relies on it.
    """

    __slots__ = ("_factory", "_iterator", "_consumed", "length")

    def __init__(self, source: ChunkSource,
                 length: Optional[int] = None):
        self._factory: Optional[Callable[[], Iterable[Sequence[Access]]]]
        self._iterator: Optional[Iterator[Sequence[Access]]]
        if callable(source):
            self._factory, self._iterator = source, None
        elif isinstance(source, (list, tuple)):
            self._factory, self._iterator = (lambda: source), None
        else:
            self._factory, self._iterator = None, iter(source)
        self._consumed = False
        self.length = length

    @property
    def replayable(self) -> bool:
        """Whether :meth:`chunks` can be called more than once."""
        return self._factory is not None

    def chunks(self) -> Iterator[Sequence[Access]]:
        """Start a pass over the chunks."""
        if self._factory is not None:
            return iter(self._factory())
        if self._consumed:
            raise RuntimeError(
                "this trace stream was already consumed; build it from a "
                "factory (or a list of chunks) to replay it"
            )
        self._consumed = True
        assert self._iterator is not None
        return self._iterator

    def __iter__(self) -> Iterator[Access]:
        """Iterate individual accesses (flattens the chunks)."""
        for chunk in self.chunks():
            yield from chunk

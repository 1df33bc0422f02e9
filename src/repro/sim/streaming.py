"""Push-driven streaming execution: feed chunks in, collect the report.

:func:`repro.sim.fastpath.execute` *pulls* chunks from a trace.  The
serve layer has the opposite shape: trace segments arrive one frame at a
time and must be *pushed* into a running execution.
:class:`StreamExecutor` is the push driver of the same executor body,
:func:`~repro.sim.fastpath.chunk_consumer`: each :meth:`~StreamExecutor.
feed` compiles one chunk and runs it to completion before returning, so

* memory stays bounded: only the chunk being fed exists, and a producer
  waits for its own feed (the caller supplies any concurrency);
* metrics stay byte-identical: the consumer sees exactly the chunk
  sequence fed, through the same carried-state execution the pull path
  uses;
* an execution error (e.g. an engine detecting tampering) raises out of
  the feed that ran the offending chunk.

Typical use::

    executor = StreamExecutor(system)
    for chunk in segments:
        executor.feed(chunk)
    executor.close()                  # flushes the deferred fills
    report = system.report("label")
"""

from __future__ import annotations

from contextlib import suppress
from typing import Sequence

from ..traces.trace import Access
from .fastpath import chunk_consumer, compile_trace

__all__ = ["StreamExecutor"]


class StreamExecutor:
    """Run one system's trace execution fed chunk by chunk.

    Not thread-safe: one feeder at a time.  After :meth:`close`, or a
    :meth:`feed` that raised, the executor is finished; build a new one
    for a new run.  An executor dropped mid-run still writes its
    counters back to the system when it is garbage-collected.
    """

    def __init__(self, system):
        self._line_size = system.cache.config.line_size
        self._consumer = chunk_consumer(system)
        next(self._consumer)
        self._closed = False
        self._fed = 0

    @property
    def fed(self) -> int:
        """Total accesses accepted so far."""
        return self._fed

    def feed(self, chunk: Sequence[Access]) -> int:
        """Compile and run one chunk; returns the running access total.

        Raises whatever the chunk's execution raised, and finishes the
        executor when it does.
        """
        if self._closed:
            raise RuntimeError("stream executor is already closed")
        try:
            compiled = compile_trace(chunk, self._line_size)
            if len(compiled):
                self._consumer.send(compiled)
        except BaseException:
            self._closed = True
            self._consumer.close()
            raise
        self._fed += len(compiled)
        return self._fed

    def close(self) -> None:
        """Finish the stream: flush the deferred fills.

        After a clean close the system holds the post-run state; read
        the metrics with ``system.report(label)``.
        """
        if not self._closed:
            self._closed = True
            with suppress(StopIteration):
                self._consumer.send(None)

"""The asyncio experiment server.

One :class:`ExperimentServer` owns:

* an asyncio listener whose per-connection state machines parse
  length-prefixed JSON frames under a size limit and an idle timeout;
* a worker pool (:func:`repro.runner.fork_pool` for ``workers >= 1``,
  the default thread executor for ``workers=0``) that keeps experiment
  and campaign executions off the event loop;
* an :class:`~repro.serve.dedup.InflightTable` plus an on-disk
  :class:`~repro.runner.ResultCache`, so concurrent identical requests
  coalesce into one execution and repeated requests replay from disk;
* a bounded admission queue: when ``max_pending`` executions are
  already queued or running, new compute requests are answered with an
  explicit ``overloaded`` frame — never silently dropped.

Execution tasks are owned by the server, not by the requesting
connection: a client that disconnects mid-run cannot orphan coalesced
followers, and a draining shutdown (:meth:`ExperimentServer.stop` with
``drain=True``) finishes every in-flight execution and writes every
pending response before the process exits.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Set

from ..runner import ResultCache
from . import handlers
from .dedup import InflightTable
from .protocol import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    error_frame,
    overloaded_frame,
    response_frame,
)

__all__ = ["ExperimentServer", "ServeStats"]


@dataclass
class ServeStats:
    """Server-lifetime counters (the ``stats`` op returns them)."""

    connections: int = 0
    connections_open: int = 0
    frames_in: int = 0
    frames_out: int = 0
    requests: int = 0
    responses: int = 0
    errors: int = 0
    overloaded: int = 0
    executed: int = 0
    failed: int = 0
    idle_timeouts: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass(eq=False)
class _StreamSession:
    """One trace-streaming session: a system fed chunk by chunk."""

    system: object
    executor: object          # repro.sim.StreamExecutor
    label: str
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


@dataclass(eq=False)
class _Connection:
    """Per-connection state: stream pair, write lock, pending requests."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    tasks: Set[asyncio.Task] = field(default_factory=set)
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    closed: bool = False
    handler: Optional[asyncio.Task] = None
    streams: Dict[str, _StreamSession] = field(default_factory=dict)
    # Monotonic-clock stamp of the last observable client/server
    # activity: bytes arriving or a request task finishing.  The idle
    # clock measures from here, never across server compute.
    last_activity: float = 0.0


class ExperimentServer:
    """Serve the experiment registry and campaign runner over sockets.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    workers:
        Fork-pool processes for executions.  ``0`` runs executions on
        the default thread executor in-process — the reference path the
        tests instrument; any count returns byte-identical documents.
    max_pending:
        Admission bound on queued-or-running executions; beyond it
        compute requests get ``overloaded`` frames.
    idle_timeout:
        Seconds of silence after which an idle connection (no pending
        requests) is sent a typed ``idle-timeout`` error and closed.
        Connections awaiting a response are never idle, and the clock
        only covers time waiting for client bytes: it restarts when a
        response lands, so a long in-flight execution can never eat
        into the client's window (the compute-reap regression in
        ``tests/test_serve.py`` pins this).
    max_frame:
        Frame payload size limit, both directions.
    cache_dir:
        On-disk result cache for completed requests (and, inside it,
        campaign per-point entries — which is what makes a killed
        campaign resumable).  ``None`` disables caching.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 1,
        max_pending: int = 64,
        idle_timeout: float = 30.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        cache_dir: Optional[Path] = Path(".bench_serve_cache"),
        drain_timeout: float = 60.0,
        log: Optional[Callable[[str], None]] = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.host = host
        self.port = port
        self.workers = workers
        self.max_pending = max_pending
        self.idle_timeout = idle_timeout
        self.max_frame = max_frame
        self.drain_timeout = drain_timeout
        self.cache = ResultCache(Path(cache_dir)) if cache_dir else None
        self.stats = ServeStats()
        self.inflight = InflightTable()
        #: Open trace-streaming sessions allowed per connection.
        self.max_stream_sessions = 8
        self._session_seq = 0
        self._log = log or (lambda line: None)
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool = None
        self._exec_tasks: Set[asyncio.Task] = set()
        self._connections: Set[_Connection] = set()
        self._closing = False
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self.workers:
            from ..runner import fork_pool

            # Fork before accepting: children inherit the warm kernel
            # registry and none of the per-connection state.
            self._pool = fork_pool(self.workers)
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, backlog=2048,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(f"listening on {self.host}:{self.port}")

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` is called (from a signal or an op)."""
        assert self._server is not None, "call start() first"
        await self._stopped.wait()

    async def stop(self, drain: bool = True) -> None:
        """Shut down; ``drain=True`` finishes in-flight work first."""
        if self._closing:
            await self._stopped.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
        if drain:
            # Executions first (they feed the responses), then the
            # per-request tasks writing those responses out.
            for tasks in (self._exec_tasks, self._request_tasks()):
                if tasks:
                    try:
                        await asyncio.wait_for(
                            asyncio.gather(*tasks, return_exceptions=True),
                            self.drain_timeout,
                        )
                    except asyncio.TimeoutError:
                        self._log("drain timeout; abandoning stragglers")
        else:
            for task in [*self._exec_tasks, *self._request_tasks()]:
                task.cancel()
        self.inflight.fail_all(
            ConnectionError("server stopped mid-execution"))
        handlers_left = [conn.handler for conn in list(self._connections)
                         if conn.handler is not None]
        for conn in list(self._connections):
            conn.closed = True
            conn.writer.close()
        for task in handlers_left:
            task.cancel()
        if handlers_left:
            await asyncio.gather(*handlers_left, return_exceptions=True)
        if self._pool is not None:
            if drain:
                self._pool.close()
                await asyncio.get_running_loop().run_in_executor(
                    None, self._pool.join)
            else:
                self._pool.terminate()
            self._pool = None
        self._stopped.set()
        self._log("stopped")

    def _request_tasks(self) -> Set[asyncio.Task]:
        return {task for conn in self._connections for task in conn.tasks}

    @property
    def pending_executions(self) -> int:
        return len(self._exec_tasks)

    def stats_document(self) -> dict:
        return {
            "counters": self.stats.to_dict(),
            "dedup": self.inflight.counters(),
            "cache": (dict(self.cache.counters(),
                           dir=str(self.cache.root))
                      if self.cache else None),
            "pending_executions": self.pending_executions,
            "max_pending": self.max_pending,
            "workers": self.workers,
        }

    # -- connection state machine ------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Connection(reader, writer, handler=asyncio.current_task())
        self._connections.add(conn)
        self.stats.connections += 1
        self.stats.connections_open += 1
        try:
            await self._read_loop(conn)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            pass  # server teardown cancels lingering reads
        finally:
            conn.closed = True
            self.stats.connections_open -= 1
            self._connections.discard(conn)
            # Abandon responses nobody can receive; executions keep
            # running (coalesced followers may still be waiting).
            for task in conn.tasks:
                task.cancel()
            # Stream sessions die with their connection.
            conn.streams.clear()
            writer.close()

    async def _read_loop(self, conn: _Connection) -> None:
        decoder = FrameDecoder(self.max_frame)
        loop = asyncio.get_running_loop()
        conn.last_activity = loop.time()

        def _stamp(_task: asyncio.Task) -> None:
            # A finishing request restarts the idle clock, so the client
            # gets a full idle window to react to the response — however
            # long the execution took (the clock covers waiting on client
            # bytes only, never server compute).
            conn.last_activity = loop.time()

        while not self._closing:
            remaining = conn.last_activity + self.idle_timeout - loop.time()
            if remaining <= 0:
                if any(not t.done() for t in conn.tasks):
                    # Awaiting a response, not idle; _stamp re-arms the
                    # clock when the work lands.
                    remaining = self.idle_timeout
                else:
                    self.stats.idle_timeouts += 1
                    await self._send(conn, error_frame(
                        "idle-timeout",
                        f"no complete frame in {self.idle_timeout}s"))
                    return
            try:
                data = await asyncio.wait_for(
                    conn.reader.read(65536), remaining)
            except asyncio.TimeoutError:
                continue  # re-evaluate against last_activity
            if not data:
                return  # client closed
            conn.last_activity = loop.time()
            try:
                frames = decoder.feed(data)
            except ProtocolError as exc:
                self.stats.errors += 1
                await self._send(conn, error_frame(exc.code, str(exc)))
                return
            for frame in frames:
                self.stats.frames_in += 1
                task = asyncio.ensure_future(
                    self._handle_request(conn, frame))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
                task.add_done_callback(_stamp)

    async def _send(self, conn: _Connection, frame: dict) -> None:
        if conn.closed:
            return
        async with conn.write_lock:
            if conn.closed:
                return
            try:
                conn.writer.write(encode_frame(frame, self.max_frame))
                await conn.writer.drain()
                self.stats.frames_out += 1
            except (ConnectionError, OSError):
                conn.closed = True

    # -- request dispatch --------------------------------------------------

    async def _handle_request(self, conn: _Connection, frame: object) -> None:
        if not isinstance(frame, dict) or not isinstance(
                frame.get("op"), str):
            self.stats.requests += 1
            self.stats.errors += 1
            await self._send(conn, error_frame(
                "bad-request",
                'requests are objects with a string "op" field'))
            return
        rid = frame.get("id")
        op = frame["op"]
        params = frame.get("params") or {}
        if not isinstance(params, dict):
            self.stats.requests += 1
            self.stats.errors += 1
            await self._send(conn, error_frame(
                "bad-request", '"params" must be an object', rid))
            return
        self.stats.requests += 1

        if op == "shutdown":
            await self._respond(conn, rid, {"stopping": True})
            asyncio.ensure_future(self.stop(drain=True))
            return
        if op in handlers.CHEAP_OPS:
            await self._respond(
                conn, rid, handlers.handle_cheap_op(self, op, params))
            return
        if op in handlers.EXECUTORS:
            await self._handle_compute(conn, rid, op, params)
            return
        if op in handlers.STREAM_OPS:
            await self._handle_stream_op(conn, rid, op, params)
            return
        self.stats.errors += 1
        known = sorted((*handlers.CHEAP_OPS, *handlers.EXECUTORS,
                        *handlers.STREAM_OPS, "shutdown"))
        await self._send(conn, error_frame(
            "unknown-op", f"unknown op {op!r}; known: {', '.join(known)}",
            rid))

    async def _respond(self, conn: _Connection, rid: object, result: object,
                       served_from: str = "execution") -> None:
        self.stats.responses += 1
        await self._send(conn, response_frame(rid, result, served_from))

    # -- trace-streaming sessions ------------------------------------------

    async def _handle_stream_op(self, conn: _Connection, rid: object,
                                op: str, params: dict) -> None:
        """One framed trace-session op (begin / chunk / end).

        Sessions are per-connection state: no dedup, no cache, torn down
        with the connection.  Chunk feeds run off the event loop, one at
        a time under the session lock: each
        :meth:`~repro.sim.StreamExecutor.feed` executes its chunk before
        the response goes out.
        """
        loop = asyncio.get_running_loop()
        try:
            if op == "trace_begin":
                if len(conn.streams) >= self.max_stream_sessions:
                    raise handlers.RequestError(
                        "bad-stream",
                        f"connection already has {len(conn.streams)} open "
                        f"stream sessions (limit {self.max_stream_sessions})")
                system, label = handlers.begin_stream_session(params)
                from ..sim import StreamExecutor

                self._session_seq += 1
                sid = f"s{self._session_seq}"
                conn.streams[sid] = _StreamSession(
                    system=system, executor=StreamExecutor(system),
                    label=str(params.get("label") or label),
                )
                await self._respond(conn, rid, {"session": sid})
                return

            sid = params.get("session")
            session = conn.streams.get(sid)
            if session is None:
                raise handlers.RequestError(
                    "unknown-session",
                    f"unknown stream session {sid!r} on this connection")

            if op == "trace_chunk":
                chunk = handlers.decode_records(params.get("records"))
                try:
                    async with session.lock:
                        total = await loop.run_in_executor(
                            None, session.executor.feed, chunk)
                except Exception as exc:
                    # Execution died (e.g. tamper detected): the session
                    # is unusable; tear it down with a typed error.
                    conn.streams.pop(sid, None)
                    self.stats.failed += 1
                    raise handlers.RequestError(
                        "stream-failed",
                        f"{type(exc).__name__}: {exc}") from exc
                await self._respond(
                    conn, rid, {"fed": len(chunk), "total": total})
                return

            # trace_end
            conn.streams.pop(sid, None)
            try:
                async with session.lock:
                    await loop.run_in_executor(
                        None, session.executor.close)
            except Exception as exc:
                self.stats.failed += 1
                raise handlers.RequestError(
                    "stream-failed",
                    f"{type(exc).__name__}: {exc}") from exc
            self.stats.executed += 1
            await self._respond(conn, rid, {
                "accesses": session.executor.fed,
                "metrics": handlers.stream_metrics(
                    session.system, session.label),
            })
        except handlers.RequestError as exc:
            self.stats.errors += 1
            await self._send(conn, error_frame(exc.code, exc.message, rid))

    async def _handle_compute(self, conn: _Connection, rid: object,
                              op: str, params: dict) -> None:
        try:
            key, args = handlers.prepare_execution(op, params, self)
        except handlers.RequestError as exc:
            self.stats.errors += 1
            await self._send(conn, error_frame(exc.code, exc.message, rid))
            return

        # Dedup -> disk cache -> admission -> execute.  No awaits between
        # the join probe and the claim: leader election is loop-atomic.
        future = self.inflight.join(key)
        if future is None:
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None and "result" in cached:
                await self._respond(conn, rid, cached["result"],
                                    served_from="cache")
                return
            if self.pending_executions >= self.max_pending:
                self.stats.overloaded += 1
                await self._send(conn, overloaded_frame(
                    rid, self.pending_executions))
                return
            future = self.inflight.claim(key)
            task = asyncio.ensure_future(self._execute(key, op, args))
            self._exec_tasks.add(task)
            task.add_done_callback(self._exec_tasks.discard)
            served_from = "execution"
        else:
            served_from = "coalesced"

        try:
            result = await asyncio.shield(future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.stats.errors += 1
            await self._send(conn, error_frame(
                "execution-failed", f"{type(exc).__name__}: {exc}", rid))
            return
        await self._respond(conn, rid, result, served_from=served_from)

    async def _execute(self, key: str, op: str, args: tuple) -> None:
        """Server-owned execution task: run, publish, resolve."""
        fn = handlers.EXECUTORS[op]
        try:
            result = await self._run_off_loop(fn, args)
        except Exception as exc:
            self.stats.failed += 1
            self.inflight.fail(key, exc)
            return
        if self.cache is not None:
            self.cache.put(key, {"result": result})
        self.stats.executed += 1
        self.inflight.resolve(key, result)

    def _run_off_loop(self, fn: Callable, args: tuple) -> "asyncio.Future":
        loop = asyncio.get_running_loop()
        if self._pool is None:
            return loop.run_in_executor(None, lambda: fn(*args))
        future = loop.create_future()

        def _ok(result):
            try:
                loop.call_soon_threadsafe(
                    lambda: future.done() or future.set_result(result))
            except RuntimeError:
                pass  # loop already closed (hard shutdown)

        def _err(exc):
            try:
                loop.call_soon_threadsafe(
                    lambda: future.done() or future.set_exception(exc))
            except RuntimeError:
                pass

        self._pool.apply_async(fn, args, callback=_ok, error_callback=_err)
        return future

"""The serve layer: codec, concurrency battery, dedup, byte-identity.

Everything here drives a live :class:`repro.serve.ExperimentServer` on
an ephemeral port inside one ``asyncio.run`` per test.  ``workers=0``
(in-process thread execution) is the default so executors can be
instrumented; the fork-pool path is exercised by the resume test and by
``make smoke``.
"""

import asyncio
import contextlib
import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_campaign, run_experiment
from repro.campaign import CAMPAIGN_SCHEMA, CampaignSpec
from repro.runner import ResultCache, to_canonical_json
from repro.serve import (
    ExperimentServer,
    FrameDecodeError,
    FrameDecoder,
    FrameStream,
    FrameTooLarge,
    encode_frame,
)
from repro.serve import handlers as serve_handlers
from repro.serve.protocol import HEADER


# -- harness ---------------------------------------------------------------


@contextlib.asynccontextmanager
async def serve(**kwargs):
    kwargs.setdefault("workers", 0)
    kwargs.setdefault("cache_dir", None)
    kwargs.setdefault("idle_timeout", 10.0)
    server = ExperimentServer(port=0, **kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


@contextlib.contextmanager
def patched_executor(monkeypatch, op, fn):
    monkeypatch.setitem(serve_handlers.EXECUTORS, op, fn)
    yield


async def connect(server):
    return await FrameStream.connect("127.0.0.1", server.port)


# -- frame codec (hypothesis round trip) -----------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestFrameCodec:
    @settings(max_examples=120, deadline=None)
    @given(payloads=st.lists(JSON_VALUES, max_size=6), data=st.data())
    def test_round_trip_any_chunking(self, payloads, data):
        """Arbitrary payloads survive arbitrary TCP read fragmentation."""
        wire = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        decoded = []
        offset = 0
        while offset < len(wire):
            size = data.draw(st.integers(1, len(wire) - offset),
                             label="chunk")
            decoded.extend(decoder.feed(wire[offset:offset + size]))
            offset += size
        decoded.extend(decoder.feed(b""))
        assert decoded == payloads
        assert decoder.pending_bytes == 0

    @settings(max_examples=60, deadline=None)
    @given(payloads=st.lists(JSON_VALUES, min_size=1, max_size=6))
    def test_round_trip_single_read(self, payloads):
        wire = b"".join(encode_frame(p) for p in payloads)
        assert FrameDecoder().feed(wire) == payloads

    def test_oversized_header_rejected_before_payload(self):
        decoder = FrameDecoder(max_frame=1024)
        with pytest.raises(FrameTooLarge):
            # Header alone: the advertised size is rejected with zero
            # payload bytes buffered (slow-loris cannot pin memory).
            decoder.feed(HEADER.pack(10 * 1024 * 1024))

    def test_malformed_payload_rejected(self):
        body = b"{not json"
        with pytest.raises(FrameDecodeError):
            FrameDecoder().feed(HEADER.pack(len(body)) + body)

    def test_encode_respects_limit(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": "x" * 2048}, max_frame=1024)


# -- protocol edges against a live server ----------------------------------


class TestProtocolEdges:
    def test_malformed_frame_gets_typed_error_then_close(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                body = b"!!not json!!"
                stream.writer.write(HEADER.pack(len(body)) + body)
                await stream.writer.drain()
                reply = await stream.recv(timeout=5)
                assert reply["type"] == "error"
                assert reply["error"]["code"] == "bad-frame"
                assert await stream.recv(timeout=5) is None  # closed
                await stream.close()

        asyncio.run(scenario())

    def test_oversized_frame_gets_typed_error_then_close(self):
        async def scenario():
            async with serve(max_frame=1024) as server:
                stream = await connect(server)
                stream.writer.write(HEADER.pack(5 * 1024 * 1024))
                await stream.writer.drain()
                reply = await stream.recv(timeout=5)
                assert reply["type"] == "error"
                assert reply["error"]["code"] == "frame-too-large"
                assert await stream.recv(timeout=5) is None
                await stream.close()

        asyncio.run(scenario())

    def test_non_object_request_rejected(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                await stream.send(["not", "a", "request"])
                reply = await stream.recv(timeout=5)
                assert reply["type"] == "error"
                assert reply["error"]["code"] == "bad-request"
                await stream.close()

        asyncio.run(scenario())

    def test_unknown_op_keeps_connection_alive(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                reply = await stream.request("frobnicate", id=1, timeout=5)
                assert reply["type"] == "error"
                assert reply["error"]["code"] == "unknown-op"
                pong = await stream.request("ping", id=2, timeout=5)
                assert pong["type"] == "response"
                assert pong["result"]["pong"] is True
                await stream.close()

        asyncio.run(scenario())

    def test_unknown_experiment_and_bad_campaign_rejected(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                reply = await stream.request(
                    "run_experiment", {"experiment": "e99"}, timeout=5)
                assert reply["error"]["code"] == "unknown-experiment"
                reply = await stream.request(
                    "run_campaign", {"spec": {"engines": []}}, timeout=5)
                assert reply["error"]["code"] == "bad-campaign"
                reply = await stream.request(
                    "run_campaign", {"spec": "not-a-spec"}, timeout=5)
                assert reply["error"]["code"] == "bad-campaign"
                await stream.close()

        asyncio.run(scenario())


# -- idle timeout and slow loris -------------------------------------------


class TestIdleTimeout:
    def test_idle_connection_disconnected_with_typed_error(self):
        async def scenario():
            async with serve(idle_timeout=0.2) as server:
                stream = await connect(server)
                reply = await stream.recv(timeout=5)
                assert reply["type"] == "error"
                assert reply["error"]["code"] == "idle-timeout"
                assert await stream.recv(timeout=5) is None
                assert server.stats.idle_timeouts == 1
                await stream.close()

        asyncio.run(scenario())

    def test_slow_loris_partial_frame_times_out_others_served(self):
        async def scenario():
            async with serve(idle_timeout=0.3) as server:
                loris = await connect(server)
                # Header promising 64 bytes, then stall halfway through.
                loris.writer.write(HEADER.pack(64) + b'{"op": "pi')
                await loris.writer.drain()

                good = await connect(server)
                pong = await good.request("ping", id=1, timeout=5)
                assert pong["type"] == "response"
                await good.close()

                reply = await loris.recv(timeout=5)
                assert reply["type"] == "error"
                assert reply["error"]["code"] == "idle-timeout"
                assert await loris.recv(timeout=5) is None
                await loris.close()

        asyncio.run(scenario())

    def test_connection_awaiting_response_is_not_idle(self, monkeypatch):
        def slow(experiment_id, quick):
            time.sleep(0.5)
            return {"experiment": experiment_id}

        async def scenario():
            with patched_executor(monkeypatch, "run_experiment", slow):
                async with serve(idle_timeout=0.15) as server:
                    stream = await connect(server)
                    reply = await stream.request(
                        "run_experiment", {"experiment": "e01"}, timeout=10)
                    assert reply["type"] == "response"
                    assert reply["result"] == {"experiment": "e01"}
                    assert server.stats.idle_timeouts == 0
                    await stream.close()

        asyncio.run(scenario())


# -- accept-many battery ---------------------------------------------------


class TestAcceptMany:
    def test_hundreds_of_concurrent_clients_all_answered(self, monkeypatch):
        clients = 200

        def fake(experiment_id, quick):
            time.sleep(0.005)
            return {"experiment": experiment_id, "quick": quick}

        async def one(server, i):
            stream = await connect(server)
            try:
                pong = await stream.request("ping", {"payload": i},
                                            id=f"p{i}", timeout=30)
                exp = await stream.request(
                    "run_experiment",
                    {"experiment": f"e0{1 + i % 3}"},
                    id=f"x{i}", timeout=30)
                return pong, exp
            finally:
                await stream.close()

        async def scenario():
            with patched_executor(monkeypatch, "run_experiment", fake):
                async with serve(max_pending=clients) as server:
                    replies = await asyncio.gather(
                        *(one(server, i) for i in range(clients)))
                    assert len(replies) == clients
                    for i, (pong, exp) in enumerate(replies):
                        assert pong["type"] == "response"
                        assert pong["result"]["payload"] == i
                        assert exp["type"] == "response"
                        assert exp["result"]["experiment"] \
                            == f"e0{1 + i % 3}"
                    stats = server.stats
                    assert stats.connections == clients
                    assert stats.requests == 2 * clients
                    assert stats.responses == 2 * clients
                    assert stats.errors == 0
                    assert stats.overloaded == 0
                    # Three distinct task keys -> exactly three
                    # executions, everything else coalesced or cache-free
                    # replays of the in-flight future.
                    assert server.inflight.leads == stats.executed
                    assert stats.executed <= 3 * 2  # racy tail, bounded
                    assert server.inflight.joins + stats.executed \
                        == clients

        asyncio.run(scenario())

    def test_overload_answered_with_explicit_frames(self, monkeypatch):
        def slow(experiment_id, quick):
            time.sleep(0.4)
            return {"experiment": experiment_id}

        async def scenario():
            with patched_executor(monkeypatch, "run_experiment", slow):
                async with serve(max_pending=1) as server:
                    stream = await connect(server)
                    for i, exp in enumerate(("e01", "e02", "e03")):
                        await stream.send({
                            "op": "run_experiment", "id": i,
                            "params": {"experiment": exp},
                        })
                    replies = [await stream.recv(timeout=10)
                               for _ in range(3)]
                    kinds = sorted(r["type"] for r in replies)
                    assert kinds == ["overloaded", "overloaded", "response"]
                    overloaded = [r for r in replies
                                  if r["type"] == "overloaded"]
                    assert all(r["pending"] >= 1 for r in overloaded)
                    assert server.stats.overloaded == 2
                    assert server.stats.executed == 1
                    await stream.close()

        asyncio.run(scenario())


# -- in-flight dedup regression --------------------------------------------


class TestDedup:
    def test_concurrent_identical_requests_execute_once(self, tmp_path):
        """Two concurrent identical requests -> one runner execution.

        Asserted three ways: the server's execution counter, the disk
        cache's hit/miss accounting, and the obs counter totals inside
        the returned documents (identical, and identical to a local
        run's — one execution produced them all).
        """
        async def one(server, i):
            stream = await connect(server)
            try:
                return await stream.request(
                    "run_experiment",
                    {"experiment": "e01", "quick": True},
                    id=i, timeout=60)
            finally:
                await stream.close()

        async def scenario():
            async with serve(cache_dir=tmp_path) as server:
                a, b = await asyncio.gather(one(server, 1), one(server, 2))
                third = await one(server, 3)
                return server.stats.executed, server.cache.counters(), \
                    server.inflight.counters(), a, b, third

        executed, cache, dedup, a, b, third = asyncio.run(scenario())

        assert executed == 1
        assert dedup["leads"] == 1
        assert dedup["joins"] == 1
        # Leader missed the disk cache once; the post-completion request
        # replayed from disk without executing.
        assert cache == {"hits": 1, "misses": 1}
        assert sorted((a["served_from"], b["served_from"])) \
            == ["coalesced", "execution"]
        assert third["served_from"] == "cache"

        # One execution, three byte-identical documents.
        docs = [to_canonical_json(r["result"]) for r in (a, b, third)]
        assert len(set(docs)) == 1

        # Obs counter totals agree with an independent local run.
        local = run_experiment("e01", quick=True).to_document()
        assert a["result"]["observability"]["total"] \
            == local["observability"]["total"]


# -- server vs local byte-identity -----------------------------------------

SMALL_CAMPAIGN = CampaignSpec(
    name="serve-test",
    engines=("stream", "xom"),
    workloads=("mixed",),
    accesses=(256,),
    cache_sizes=(1024, 4096),
    latencies=(20,),
)


class TestByteIdentity:
    def test_experiment_documents_match_local_run(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                try:
                    reply = await stream.request(
                        "run_experiment",
                        {"experiment": "e01", "quick": True}, timeout=60)
                finally:
                    await stream.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply["type"] == "response"
        local = run_experiment("e01", quick=True).to_document()
        assert to_canonical_json(reply["result"]) \
            == to_canonical_json(local)

    def test_campaign_documents_match_local_run(self, tmp_path):
        async def scenario():
            async with serve(cache_dir=tmp_path / "serve") as server:
                stream = await connect(server)
                try:
                    reply = await stream.request(
                        "run_campaign",
                        {"spec": SMALL_CAMPAIGN.to_dict()}, timeout=120)
                finally:
                    await stream.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply["type"] == "response"
        local = run_campaign(SMALL_CAMPAIGN, workers=1, cache_dir=None)
        assert to_canonical_json(reply["result"]["metrics"]) \
            == local.metrics_json()
        assert reply["result"]["profile"]["points"] == SMALL_CAMPAIGN.size

    def test_kill_server_mid_campaign_then_reserve_resumes(self, tmp_path):
        """A server killed mid-campaign leaves completed points behind;
        re-serving the same spec resumes from the cache and still
        produces byte-identical metrics."""
        spec = CampaignSpec(
            name="serve-resume",
            engines=("stream", "xom"),
            workloads=("mixed", "sequential"),
            accesses=(512, 1024),
            cache_sizes=(1024,),
            latencies=(20,),
        )
        cache_dir = tmp_path / "serve"
        doc_key = ResultCache.task_key(
            "serve/campaign", spec.name, spec.to_dict(),
            schema=CAMPAIGN_SCHEMA, quick=False)

        async def first_run():
            # Fork-pool worker so a hard stop genuinely kills the
            # execution mid-sweep (a thread could not be killed).
            server = ExperimentServer(port=0, workers=1,
                                      cache_dir=cache_dir)
            await server.start()
            stream = await connect(server)
            await stream.send({"op": "run_campaign", "id": 1,
                               "params": {"spec": spec.to_dict()}})
            # Wait until at least two points have been published, then
            # pull the plug without draining.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(list(cache_dir.glob("*.json"))) >= 2:
                    break
                await asyncio.sleep(0.005)
            else:
                pytest.fail("no campaign points were ever published")
            await server.stop(drain=False)
            await stream.close()

        asyncio.run(first_run())
        # If the sweep won the race and completed, drop the top-level
        # response document — the kill is only interesting for points.
        (cache_dir / f"{doc_key}.json").unlink(missing_ok=True)
        published = len(list(cache_dir.glob("*.json")))
        assert published >= 2

        async def second_run():
            async with serve(workers=0, cache_dir=cache_dir) as server:
                stream = await connect(server)
                try:
                    return await stream.request(
                        "run_campaign", {"spec": spec.to_dict()},
                        timeout=120)
                finally:
                    await stream.close()

        reply = asyncio.run(second_run())
        assert reply["type"] == "response"
        profile = reply["result"]["profile"]
        assert profile["cache"]["hits"] >= 2          # resumed, not redone
        assert profile["cache"]["hits"] + profile["executed"] == spec.size

        local = run_campaign(spec, workers=1, cache_dir=None)
        assert to_canonical_json(reply["result"]["metrics"]) \
            == local.metrics_json()


# -- clean shutdown --------------------------------------------------------


class TestShutdown:
    def test_shutdown_drains_in_flight_work(self, monkeypatch):
        def slow(experiment_id, quick):
            time.sleep(0.3)
            return {"experiment": experiment_id, "slow": True}

        async def scenario():
            with patched_executor(monkeypatch, "run_experiment", slow):
                async with serve() as server:
                    worker = await connect(server)
                    await worker.send({"op": "run_experiment", "id": "w",
                                       "params": {"experiment": "e01"}})
                    await asyncio.sleep(0.05)  # let the execution start
                    admin = await connect(server)
                    bye = await admin.request("shutdown", id="bye",
                                              timeout=10)
                    assert bye["type"] == "response"
                    assert bye["result"] == {"stopping": True}
                    # The in-flight execution still completes and its
                    # response is still delivered before the stop.
                    reply = await worker.recv(timeout=10)
                    assert reply["type"] == "response"
                    assert reply["result"]["slow"] is True
                    await server._stopped.wait()
                    assert server.stats.executed == 1
                    assert server.stats.responses == 2
                    await worker.close()
                    await admin.close()

        asyncio.run(scenario())

    def test_disconnected_leader_does_not_orphan_followers(self,
                                                           monkeypatch):
        def slow(experiment_id, quick):
            time.sleep(0.3)
            return {"experiment": experiment_id}

        async def scenario():
            with patched_executor(monkeypatch, "run_experiment", slow):
                async with serve() as server:
                    leader = await connect(server)
                    await leader.send({"op": "run_experiment", "id": 1,
                                       "params": {"experiment": "e01"}})
                    await asyncio.sleep(0.05)
                    follower = await connect(server)
                    await follower.send({"op": "run_experiment", "id": 2,
                                         "params": {"experiment": "e01"}})
                    await asyncio.sleep(0.05)
                    await leader.close()  # leader walks away mid-run
                    reply = await follower.recv(timeout=10)
                    assert reply["type"] == "response"
                    assert reply["result"] == {"experiment": "e01"}
                    assert server.stats.executed == 1
                    await follower.close()

        asyncio.run(scenario())

    def test_failed_execution_returns_typed_error(self, monkeypatch):
        def boom(experiment_id, quick):
            raise RuntimeError("engine melted")

        async def scenario():
            with patched_executor(monkeypatch, "run_experiment", boom):
                async with serve() as server:
                    stream = await connect(server)
                    reply = await stream.request(
                        "run_experiment", {"experiment": "e01"},
                        timeout=10)
                    assert reply["type"] == "error"
                    assert reply["error"]["code"] == "execution-failed"
                    assert "engine melted" in reply["error"]["message"]
                    assert server.stats.failed == 1
                    await stream.close()

        asyncio.run(scenario())


# -- the cheap ops ---------------------------------------------------------


class TestCheapOps:
    def test_list_experiments_and_stats(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                exps = await stream.request("list_experiments", timeout=10)
                stats = await stream.request("stats", timeout=10)
                await stream.close()
                return exps, stats

        exps, stats = asyncio.run(scenario())
        assert "e01" in exps["result"]["experiments"]
        assert exps["result"]["experiments"] \
            == sorted(exps["result"]["experiments"])
        counters = stats["result"]["counters"]
        assert counters["requests"] == 2
        assert stats["result"]["dedup"] == {"leads": 0, "joins": 0,
                                            "in_flight": 0}

    def test_result_documents_are_json_clean(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                reply = await stream.request(
                    "list_engines", {"survey_only": True}, timeout=10)
                await stream.close()
                return reply

        reply = asyncio.run(scenario())
        engines = reply["result"]["engines"]
        assert any(e["name"] == "stream" for e in engines)
        json.dumps(engines)  # must already be JSON-clean


# -- streaming: slow executions vs the idle clock, trace sessions ----------


class TestIdleClockCoversOnlyWaiting:
    def test_long_execution_then_quiet_client_still_served(self,
                                                           monkeypatch):
        """Regression: the idle clock must restart when a request
        *completes*, not when its bytes arrived.

        A client that sends one slow request (longer than the idle
        timeout), reads the response, thinks for most of another idle
        window and then pings again was reaped by the old
        arrival-stamped clock."""

        def slow(experiment_id, quick):
            time.sleep(0.6)  # 1.5x the idle timeout
            return {"experiment": experiment_id}

        async def scenario():
            with patched_executor(monkeypatch, "run_experiment", slow):
                async with serve(idle_timeout=0.4) as server:
                    stream = await connect(server)
                    reply = await stream.request(
                        "run_experiment", {"experiment": "e01"}, timeout=10)
                    assert reply["type"] == "response"
                    # Quiet for most of an idle window *after* the
                    # response; the connection must still be alive.
                    await asyncio.sleep(0.3)
                    pong = await stream.request("ping", id=2, timeout=5)
                    assert pong["type"] == "response"
                    assert server.stats.idle_timeouts == 0
                    await stream.close()

        asyncio.run(scenario())

    def test_in_flight_stream_session_not_reaped(self):
        """Feeding trace chunks continuously must hold off the reaper,
        and a session spanning several idle windows must finish."""

        async def scenario():
            async with serve(idle_timeout=0.4) as server:
                stream = await connect(server)
                begin = await stream.request(
                    "trace_begin", {"engine": "xom"}, timeout=10)
                sid = begin["result"]["session"]
                records = [[2, (i * 4) % 4096, 4] for i in range(512)]
                for i in range(8):
                    await asyncio.sleep(0.15)  # 8 x 0.15s > idle_timeout
                    fed = await stream.request(
                        "trace_chunk",
                        {"session": sid, "records": records}, timeout=10)
                    assert fed["type"] == "response"
                done = await stream.request(
                    "trace_end", {"session": sid}, timeout=10)
                assert done["type"] == "response"
                assert done["result"]["accesses"] == 8 * 512
                assert server.stats.idle_timeouts == 0
                await stream.close()

        asyncio.run(scenario())


class TestStreamSessions:
    def test_session_metrics_match_local_run_stream(self):
        """A trace fed frame by frame lands on the same canonical
        metrics as repro.api.run_stream generating it locally."""
        from repro.api import run_stream
        from repro.traces import iter_workload

        accesses = [[{"fetch": 2, "load": 0, "store": 1}[a.kind.name.lower()],
                     a.addr % (32 * 1024), a.size]
                    for a in iter_workload("mixed", n=6000)]
        local = run_stream(engine="xom", workload="mixed", accesses=6000)

        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                begin = await stream.request(
                    "trace_begin", {"engine": "xom"}, timeout=10)
                sid = begin["result"]["session"]
                for i in range(0, len(accesses), 1024):
                    await stream.request(
                        "trace_chunk",
                        {"session": sid,
                         "records": accesses[i:i + 1024]}, timeout=10)
                done = await stream.request(
                    "trace_end", {"session": sid}, timeout=10)
                await stream.close()
                return done

        done = asyncio.run(scenario())
        assert done["result"]["accesses"] == 6000
        assert done["result"]["metrics"] == local["metrics"]

    @pytest.mark.parametrize("params", [{}, {"image_size": 20000}])
    def test_address_scrambled_session_matches_local(self, params):
        """trace_begin sizes the scrambled region to the session's image
        (default or not a power of two), like run_stream does."""
        from repro.api import run_stream
        from repro.traces import iter_workload

        image_size = params.get("image_size", 32 * 1024)
        kinds = {"fetch": 2, "load": 0, "store": 1}
        records = [[kinds[a.kind.name.lower()], a.addr % image_size, a.size]
                   for a in iter_workload("mixed", n=600)]
        local = run_stream(engine="addr-scramble-stream", workload="mixed",
                           accesses=600, image_size=image_size)

        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                begin = await stream.request(
                    "trace_begin",
                    {"engine": "addr-scramble-stream", **params}, timeout=10)
                assert begin["type"] == "response", begin
                sid = begin["result"]["session"]
                await stream.request(
                    "trace_chunk", {"session": sid, "records": records},
                    timeout=10)
                done = await stream.request(
                    "trace_end", {"session": sid}, timeout=10)
                await stream.close()
                return done

        done = asyncio.run(scenario())
        assert done["result"]["metrics"] == local["metrics"]

    def test_run_stream_op_matches_local(self):
        from repro.api import run_stream

        local = run_stream(engine=None, workload="dma-burst", accesses=4000,
                           chunk_size=512)

        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                reply = await stream.request(
                    "run_stream",
                    {"workload": "dma-burst", "accesses": 4000,
                     "chunk_size": 512}, timeout=30)
                await stream.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply["type"] == "response"
        assert reply["result"] == local

    def test_typed_stream_errors(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                bad_engine = await stream.request(
                    "trace_begin", {"engine": "enigma"}, timeout=10)
                bad_session = await stream.request(
                    "trace_chunk", {"session": "s999", "records": []},
                    timeout=10)
                begin = await stream.request("trace_begin", {}, timeout=10)
                sid = begin["result"]["session"]
                bad_record = await stream.request(
                    "trace_chunk",
                    {"session": sid, "records": [[7, 0, 4]]}, timeout=10)
                bad_shape = await stream.request(
                    "trace_chunk",
                    {"session": sid, "records": [[1, 2]]}, timeout=10)
                bad_values = await stream.request(
                    "trace_chunk",
                    {"session": sid, "records": [[0, -4, 0]]}, timeout=10)
                await stream.close()
                return (bad_engine, bad_session, bad_record, bad_shape,
                        bad_values)

        replies = asyncio.run(scenario())
        for reply in replies:
            assert reply["type"] == "error"
        codes = [r["error"]["code"] for r in replies]
        assert codes[0] == "bad-stream"
        assert codes[1] == "unknown-session"
        assert all(c == "bad-stream" for c in codes[2:])

    def test_line_crossing_record_fails_the_session(self):
        """A store whose bytes leave its cache line is rejected by the
        trace compiler: the chunk gets ``stream-failed`` and the session
        is gone."""
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                begin = await stream.request("trace_begin", {}, timeout=10)
                sid = begin["result"]["session"]
                crossing = await stream.request(
                    "trace_chunk",
                    {"session": sid, "records": [[0, 0, 4], [1, 0x3FE, 4]]},
                    timeout=10)
                after = await stream.request(
                    "trace_end", {"session": sid}, timeout=10)
                await stream.close()
                return crossing, after

        crossing, after = asyncio.run(scenario())
        assert crossing["type"] == "error"
        assert crossing["error"]["code"] == "stream-failed"
        assert "0x3fe of 4 bytes crosses its 32-byte cache line" \
            in crossing["error"]["message"]
        assert after["error"]["code"] == "unknown-session"

    def test_abandoned_session_cleaned_up_on_disconnect(self):
        async def scenario():
            async with serve() as server:
                stream = await connect(server)
                begin = await stream.request(
                    "trace_begin", {"engine": "xom"}, timeout=10)
                sid = begin["result"]["session"]
                await stream.request(
                    "trace_chunk",
                    {"session": sid,
                     "records": [[2, 0, 4]] * 64}, timeout=10)
                await stream.close()  # vanish mid-session
                # The server must survive and accept new work.
                fresh = await connect(server)
                pong = await fresh.request("ping", timeout=5)
                assert pong["type"] == "response"
                await fresh.close()

        asyncio.run(scenario())

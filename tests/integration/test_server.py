"""Network serving layer end-to-end: round-trips, crash, drain, flow.

The acceptance contract of the serving layer:

* a remote embed -> detect round-trip over TCP is **bit-identical** to
  the in-process :class:`~repro.hub.StreamHub`;
* a server killed mid-push (transports aborted, no goodbye) and
  restarted with ``--recover`` over the same store resumes every open
  stream bit-identically — the client SDK reconnects, replays the
  unseen suffix and deduplicates redelivered outputs;
* graceful drain checkpoints everything and notifies clients;
* credit-based flow control rejects over-credit pushes with a ``flow``
  error instead of buffering unboundedly.

The server runs on a private event-loop thread; tests drive it with the
synchronous :class:`~repro.server.client.RemoteClient` — exactly the
deployment shape (client code has no asyncio in sight).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import DetectionSession, WatermarkParams, watermark_stream
from repro.chaos import (ChaosChannel, FaultInjector, FaultPlan,
                         RetryPolicy, TransportFaults)
from repro.errors import CheckpointStoreError, RemoteError
from repro.server import protocol
from repro.server.client import AsyncRemoteClient, RemoteClient
from repro.server.service import (DRAIN_GRACE_SECONDS, StreamService,
                                  _Connection)
from repro.server.transports import TcpTransport
from repro.streams.generators import TemperatureSensorGenerator

PARAMS = WatermarkParams(phi=5)
KEY = b"server-test-key"

#: This checkout's sources, first on a ``repro`` child's import path.
SRC = Path(__file__).resolve().parents[2] / "src"


#: Reconnect budget for tests that kill the server under a client.
PATIENT = RetryPolicy(attempts=80, max_delay=0.1)


def _params_dict() -> dict:
    from repro.core.serialize import params_to_dict
    return params_to_dict(PARAMS)


class RawPeer:
    """A hand-driven client: single frames through the codec over TCP,
    for conversations the SDK would never hold."""

    def __init__(self, channel):
        self.channel = channel

    @classmethod
    @contextlib.asynccontextmanager
    async def connect(cls, host, port):
        """Dial ``host:port``; the socket closes when the block ends."""
        channel = await TcpTransport().connect(host, port)
        try:
            yield cls(channel)
        finally:
            await channel.close()

    async def send(self, frame: dict) -> None:
        await self.channel.write_message(protocol.CODEC.encode(frame))

    async def read(self) -> dict:
        return protocol.CODEC.decode(await self.channel.read_message())

    async def hello(self) -> dict:
        await self.send({"type": "hello",
                         "version": protocol.PROTOCOL_VERSION})
        return await self.read()


class ServerHarness:
    """A StreamService on a background event loop, crashable at will."""

    def __init__(self, tmp_path, **service_kwargs):
        self._store = tmp_path / "server-store"
        self._kwargs = dict(service_kwargs)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self.service = None
        self.port = None

    def _run(self):
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _call(self, coroutine, timeout=30):
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop).result(timeout)

    def start(self, *, recover=False, port=0):
        """Start (or restart) a service over the same store directory."""
        self.service = StreamService(store_path=self._store, port=port,
                                     recover=recover, **self._kwargs)
        host, self.port = self._call(self.service.start())
        return host, self.port

    def crash(self):
        """SIGKILL equivalent: abort every transport, checkpoint nothing."""
        service = self.service

        async def kill():
            service._listener.close()
            for connection in list(service._connections):
                connection.abort()

        self._call(kill())
        time.sleep(0.1)

    def restart_recovered(self):
        """Bring a fresh server up on the same port with --recover."""
        port = self.port
        return self.start(recover=True, port=port)

    def drain(self):
        """Graceful SIGTERM-style drain."""
        self._call(self.service.drain())

    def stop(self):
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop.close()


@pytest.fixture()
def harness(tmp_path):
    """A running server over a durable store; stopped afterwards."""
    server = ServerHarness(tmp_path, checkpoint_every=1, credits=3)
    server.start()
    yield server
    try:
        server.drain()
    except Exception:
        pass
    server.stop()


def feed_all(session, values, chunk=500):
    """Feed a whole array in chunks; return the concatenated outputs."""
    pieces = [session.feed(values[start:start + chunk])
              for start in range(0, len(values), chunk)]
    pieces.append(session.finish())
    return np.concatenate([piece for piece in pieces if piece.size])


class TestRoundTrip:
    def test_remote_embed_detect_bit_identical(self, harness):
        """Embed + detect over TCP == the in-process session, bit for bit."""
        values = TemperatureSensorGenerator(eta=60, seed=21).generate(4000)
        reference, _ = watermark_stream(values, "10", KEY, params=PARAMS)

        host, port = harness.service.address
        with RemoteClient(host, port) as client:
            session = client.protect("s-embed", "10", KEY, params=PARAMS)
            marked = feed_all(session, values)
        assert np.array_equal(marked, reference)

        local = DetectionSession(2, KEY, params=PARAMS)
        local.feed(reference)
        local.finish()
        expected = local.result()

        with RemoteClient(host, port) as client:
            session = client.detect("s-detect", 2, KEY, params=PARAMS)
            feed_all(session, marked, chunk=700)
            remote = session.result()
        assert remote.buckets_true == expected.buckets_true
        assert remote.buckets_false == expected.buckets_false
        assert remote.wm_estimate() == expected.wm_estimate()

    def test_finished_streams_do_not_leak(self, harness):
        """After flush the stream and its checkpoint are dropped."""
        values = TemperatureSensorGenerator(eta=60, seed=22).generate(1500)
        host, port = harness.service.address
        with RemoteClient(host, port) as client:
            session = client.protect("leak-check", "1", KEY, params=PARAMS)
            feed_all(session, values)
        hub = harness.service.hub_for("default")
        assert "leak-check" not in hub
        assert "leak-check" not in hub.store
        assert len(hub.store) == 0

    def test_tenants_are_isolated(self, harness):
        """The same stream id lives independently per tenant namespace —
        including a tenant name crafted to look like another tenant's
        sidecar directory."""
        values = TemperatureSensorGenerator(eta=60, seed=23).generate(1500)
        host, port = harness.service.address
        with RemoteClient(host, port, tenant="acme") as one, \
                RemoteClient(host, port, tenant="acme.meta") as two:
            session_one = one.protect("sensor", "1", b"key-a",
                                      params=PARAMS)
            session_two = two.protect("sensor", "1", b"key-b",
                                      params=PARAMS)
            out_one = feed_all(session_one, values)
            out_two = feed_all(session_two, values)
        ref_a, _ = watermark_stream(values, "1", b"key-a", params=PARAMS)
        ref_b, _ = watermark_stream(values, "1", b"key-b", params=PARAMS)
        assert np.array_equal(out_one, ref_a)
        assert np.array_equal(out_two, ref_b)


class TestCrashRecovery:
    def test_kill_mid_push_reconnect_resume_bit_identical(self, harness):
        """The satellite contract: SIGKILLed server, restarted with
        --recover, and the client's reconnect-resume yields detection
        votes bit-identical to an uninterrupted run."""
        values = TemperatureSensorGenerator(eta=60, seed=31).generate(6000)
        marked, _ = watermark_stream(values, "10", KEY, params=PARAMS)

        local = DetectionSession(2, KEY, params=PARAMS)
        local.feed(marked)
        local.finish()
        expected = local.result()

        host, port = harness.service.address
        client = RemoteClient(host, port, retry=PATIENT)
        try:
            embed = client.protect("pipe", "1", b"embed-key", params=PARAMS)
            detect = client.detect("court", 2, KEY, params=PARAMS)
            out = []
            for start in range(0, 3000, 500):
                out.append(embed.feed(values[start:start + 500]))
                detect.feed(marked[start:start + 500])

            harness.crash()
            harness.restart_recovered()

            for start in range(3000, 6000, 500):
                out.append(embed.feed(values[start:start + 500]))
                detect.feed(marked[start:start + 500])
            out.append(embed.finish())
            detect.finish()
            remote = detect.result()
            recovered_stream = np.concatenate(
                [piece for piece in out if piece.size])
        finally:
            client.close()

        assert client.reconnects >= 1
        # detection votes bit-identical to the uninterrupted run
        assert remote.buckets_true == expected.buckets_true
        assert remote.buckets_false == expected.buckets_false
        # and the embedding output stream too, exactly once per item
        reference, _ = watermark_stream(values, "1", b"embed-key",
                                        params=PARAMS)
        assert np.array_equal(recovered_stream, reference)

    def test_connection_abort_mid_pipelined_feed_loses_nothing(self,
                                                               harness):
        """Outputs already received when the transport dies mid-feed
        must still reach the caller exactly once (they ride the pending
        buffer, not transient local state)."""
        values = TemperatureSensorGenerator(eta=60, seed=34).generate(4000)
        host, port = harness.service.address
        service = harness.service

        original = StreamService._on_push
        state = {"count": 0}

        async def sabotage(self, connection, frame):
            await original(self, connection, frame)
            state["count"] += 1
            if state["count"] == 3:  # results 1-3 sent, then the axe
                connection.abort()

        service._on_push = sabotage.__get__(service, StreamService)
        try:
            with RemoteClient(host, port, push_items=200,
                              retry=RetryPolicy(max_delay=0.1)) as client:
                session = client.protect("mid-feed", "1", KEY,
                                         params=PARAMS)
                out = [session.feed(values)]  # 20 pipelined pushes
                out.append(session.finish())
                marked = np.concatenate(
                    [piece for piece in out if piece.size])
                assert client.reconnects >= 1
        finally:
            service._on_push = original.__get__(service, StreamService)
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)

    def test_result_lost_to_crash_is_redelivered_from_sidecar(self,
                                                              harness):
        """A result frame the client never read, wiped out by a SIGKILL
        right after its checkpoint, is redelivered at resume from the
        persisted replay sidecar — not lost."""
        values = TemperatureSensorGenerator(eta=60, seed=35).generate(2000)
        host, port = harness.service.address

        async def push_then_vanish():
            async with RawPeer.connect(host, port) as peer:
                await peer.hello()
                await peer.send({
                    "type": "open", "stream_id": "lossy",
                    "kind": "protection", "key": protocol.encode_key(KEY),
                    "watermark": "1",
                    "params": _params_dict()})
                await peer.read()  # open result
                await peer.read()  # credit grant
                await peer.send({
                    "type": "push", "stream_id": "lossy", "seq": 0,
                    "delivered": 0, "values": values[:1000]})
                out0 = (await peer.read())["values"]
                await peer.read()  # credit
                # Second push acknowledges the first result; its own result
                # is never read — the crash eats it.
                await peer.send({
                    "type": "push", "stream_id": "lossy", "seq": 1,
                    "delivered": int(out0.size), "values": values[1000:]})
                await asyncio.sleep(0.3)  # let the server process + ckpt
                return out0

        out0 = asyncio.run(asyncio.wait_for(push_then_vanish(), 15))
        harness.crash()
        harness.restart_recovered()
        host, port = harness.service.address

        async def resume_and_collect(delivered):
            async with RawPeer.connect(host, port) as peer:
                await peer.hello()
                await peer.send({
                    "type": "open", "stream_id": "lossy",
                    "kind": "protection", "key": protocol.encode_key(KEY),
                    "watermark": "1", "resume": True,
                    "delivered": delivered,
                    "params": _params_dict()})
                opened = await peer.read()
                await peer.read()  # credit grant
                assert opened["items_in"] == 2000  # checkpointed past push 2
                replay = opened["values"]
                await peer.send({
                    "type": "flush", "stream_id": "lossy",
                    "delivered": delivered + int(replay.size)})
                tail = (await peer.read())["values"]
                return replay, tail

        replay, tail = asyncio.run(
            asyncio.wait_for(resume_and_collect(int(out0.size)), 15))
        marked = np.concatenate([out0, replay, tail])
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)

    def test_torn_flush_result_is_refetched_not_lost(self, harness,
                                                      monkeypatch):
        """A flush RESULT torn inside its payload on an 8-byte boundary
        still decodes, with half its values.  The client must treat it
        as wire damage, reconnect and collect the missing tail: output
        bit-identical, every item delivered exactly once."""
        values = TemperatureSensorGenerator(eta=60, seed=36).generate(3000)
        host, port = harness.service.address
        send = _Connection.send
        torn = []

        async def tearing_send(self, frame):
            if frame["type"] == "result" and frame["op"] == "flush" \
                    and frame["values"].size >= 2 and not torn:
                # What the chaos truncate fault does: one complete
                # transport message carrying a prefix of the body, then
                # the connection dies.
                cut = frame["values"].size // 2
                body = protocol.CODEC.encode(frame)
                await self.channel.write_message(body[:len(body) - 8 * cut])
                torn.append(cut)
                self.abort()
                raise ConnectionResetError("torn flush result")
            await send(self, frame)

        monkeypatch.setattr(_Connection, "send", tearing_send)
        with RemoteClient(host, port, retry=RetryPolicy(max_delay=0.1)) \
                as client:
            session = client.protect("torn", "1", KEY, params=PARAMS)
            marked = feed_all(session, values)
            reconnects = client.reconnects
        assert torn and reconnects >= 1
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert marked.size == values.size
        assert np.array_equal(marked, reference)

    def test_first_dial_uses_the_whole_retry_budget(self):
        """A client with no open stream gets every attempt its policy
        gives: a server that starts listening only after the fourth
        dial has failed is still reached."""
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here until the fifth dial

        async def dial_late_server():
            service = StreamService(port=port)
            client = AsyncRemoteClient("127.0.0.1", port,
                                       retry=RetryPolicy(attempts=8,
                                                         max_delay=0.05))
            connect = client._transport.connect
            dials = []

            async def counting_connect(host, port):
                dials.append(port)
                if len(dials) == 5:
                    await service.start()
                return await connect(host, port)

            client._transport.connect = counting_connect
            try:
                await client.connect()
                await client.close()
            finally:
                await service.drain()
            return len(dials)

        assert asyncio.run(asyncio.wait_for(dial_late_server(), 30)) == 5

    def test_recover_refused_without_flag(self, harness, tmp_path):
        """A non-empty store without --recover must refuse to start."""
        values = TemperatureSensorGenerator(eta=60, seed=32).generate(1200)
        host, port = harness.service.address
        client = RemoteClient(host, port)
        session = client.protect("lingering", "1", KEY, params=PARAMS)
        session.feed(values)
        client.close()
        harness.crash()

        from repro.errors import ReproError
        with pytest.raises(ReproError, match="--recover"):
            harness.start(recover=False, port=0)

    def test_graceful_drain_checkpoints_open_streams(self, harness):
        """Drain writes every open stream's checkpoint to the store."""
        values = TemperatureSensorGenerator(eta=60, seed=33).generate(1500)
        host, port = harness.service.address
        client = RemoteClient(host, port)
        session = client.protect("draining", "1", KEY, params=PARAMS)
        session.feed(values[:1000])
        harness.drain()
        client.close()
        hub = harness.service.hub_for("default")
        assert "draining" in hub.store
        entry = hub.store.entry("draining")
        counters = entry["state"]["scan"]["counters"]
        assert counters["items"] == 1000


@pytest.fixture(params=["tcp", "websocket"])
def matrix(request, tmp_path):
    """A running server + client kwargs for one transport."""
    server = ServerHarness(tmp_path, checkpoint_every=1, credits=3,
                           transport=request.param)
    server.start()
    yield server, {"transport": request.param}
    try:
        server.drain()
    except Exception:
        pass
    server.stop()


class TestTransportMatrix:
    """The core serving contracts on every transport."""

    def test_round_trip_bit_identical(self, matrix):
        """Embed + detect on each transport == in-process, bit for bit."""
        harness, kwargs = matrix
        values = TemperatureSensorGenerator(eta=60, seed=51).generate(3000)
        reference, _ = watermark_stream(values, "10", KEY, params=PARAMS)
        host, port = harness.service.address
        with RemoteClient(host, port, **kwargs) as client:
            session = client.protect("m-embed", "10", KEY, params=PARAMS)
            marked = feed_all(session, values)
            stats = client._async.wire_stats()
        assert np.array_equal(marked, reference)
        assert stats["transport"] == kwargs["transport"]
        assert stats["frames_sent"] > 0
        assert stats["bytes_received"] > 0

        local = DetectionSession(2, KEY, params=PARAMS)
        local.feed(reference)
        local.finish()
        expected = local.result()
        with RemoteClient(host, port, **kwargs) as client:
            session = client.detect("m-detect", 2, KEY, params=PARAMS)
            feed_all(session, marked, chunk=700)
            remote = session.result()
        assert remote.buckets_true == expected.buckets_true
        assert remote.wm_estimate() == expected.wm_estimate()

    def test_kill_recover_reconnect_resume(self, matrix):
        """SIGKILL + --recover + reconnect-resume works on every
        transport."""
        harness, kwargs = matrix
        values = TemperatureSensorGenerator(eta=60, seed=52).generate(4000)
        host, port = harness.service.address
        client = RemoteClient(host, port, retry=PATIENT, **kwargs)
        try:
            session = client.protect("m-pipe", "1", KEY, params=PARAMS)
            out = [session.feed(values[start:start + 500])
                   for start in range(0, 2000, 500)]
            harness.crash()
            harness.restart_recovered()
            out += [session.feed(values[start:start + 500])
                    for start in range(2000, 4000, 500)]
            out.append(session.finish())
            marked = np.concatenate([piece for piece in out if piece.size])
        finally:
            client.close()
        assert client.reconnects >= 1
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)

    def test_graceful_drain_checkpoints(self, matrix):
        """Drain checkpoints open streams on every transport."""
        harness, kwargs = matrix
        values = TemperatureSensorGenerator(eta=60, seed=53).generate(1500)
        host, port = harness.service.address
        client = RemoteClient(host, port, **kwargs)
        session = client.protect("m-drain", "1", KEY, params=PARAMS)
        session.feed(values[:1000])
        harness.drain()
        client.close()
        hub = harness.service.hub_for("default")
        assert "m-drain" in hub.store
        counters = hub.store.entry("m-drain")["state"]["scan"]["counters"]
        assert counters["items"] == 1000


class TestFlowControlAndErrors:
    def test_flow_control_paces_large_feeds(self, harness):
        """A feed far larger than the credit window completes correctly
        (pushes are paced by CREDIT frames, not client buffering)."""
        values = TemperatureSensorGenerator(eta=60, seed=41).generate(4000)
        host, port = harness.service.address
        with RemoteClient(host, port, push_items=100) as client:
            session = client.protect("paced", "1", KEY, params=PARAMS)
            marked = np.concatenate(
                [piece for piece in (session.feed(values),
                                     session.finish()) if piece.size])
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)

    def test_over_credit_push_gets_flow_error(self, harness):
        """A push arriving with the stream's credit window exhausted is
        refused with a ``flow`` error and dropped, not buffered.

        The serial handler returns each credit before reading the next
        frame, so the window cannot be over-drawn from outside; the
        test zeroes the server-side counter directly (the state a
        concurrent handler variant would reach) and then pushes.
        """
        host, port = harness.service.address
        service = harness.service

        async def overpush():
            async with RawPeer.connect(host, port) as peer:
                hello = await peer.hello()
                assert hello["credits"] == 3
                await peer.send({
                    "type": "open", "stream_id": "greedy",
                    "kind": "protection", "key": protocol.encode_key(KEY),
                    "watermark": "1"})
                frames = [await peer.read()
                          for _ in range(2)]  # open result + credit grant
                assert {frame["type"] for frame in frames} \
                    == {"result", "credit"}
                (connection,) = service._connections
                connection.credits["greedy"] = 0  # window exhausted
                await peer.send({
                    "type": "push", "stream_id": "greedy", "seq": 0,
                    "values": np.zeros(4)})
                while True:
                    frame = await peer.read()
                    if frame["type"] == "error":
                        return frame

        error = asyncio.run(asyncio.wait_for(overpush(), 15))
        assert error["code"] == "flow"
        assert "credit" in error["message"]

    def test_duplicate_open_rejected(self, harness):
        host, port = harness.service.address
        with RemoteClient(host, port) as one:
            one.protect("dup", "1", KEY, params=PARAMS)
            with RemoteClient(host, port) as two:
                with pytest.raises(RemoteError,
                                   match="another connection"):
                    two.protect("dup", "1", KEY, params=PARAMS)

    @pytest.mark.parametrize("option", ["bogus", "batched"])
    def test_bad_encoding_option_gets_bad_params(self, harness, option):
        """An OPEN carrying an option its encoding does not take is
        answered with ``bad-params`` on a connection that stays up: the
        same client then opens the stream with valid options."""
        values = TemperatureSensorGenerator(eta=60, seed=44).generate(800)
        host, port = harness.service.address
        with RemoteClient(host, port) as client:
            with pytest.raises(RemoteError, match=option) as refused:
                client.protect("opts", "1", KEY, params=PARAMS,
                               encoding_options={option: False})
            assert refused.value.code == "bad-params"
            marked = feed_all(client.protect("opts", "1", KEY,
                                             params=PARAMS), values)
            assert client.reconnects == 0
            status = client.status()
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)
        assert status["server"]["errors"] == 1

    def test_resume_with_wrong_key_rejected(self, harness):
        """Resuming a live stream with a different key is refused."""
        values = TemperatureSensorGenerator(eta=60, seed=42).generate(800)
        host, port = harness.service.address
        client = RemoteClient(host, port)
        session = client.protect("keyed", "1", KEY, params=PARAMS)
        session.feed(values)
        client.close()

        async def steal():
            async with RawPeer.connect(host, port) as peer:
                await peer.hello()
                await peer.send({
                    "type": "open", "stream_id": "keyed",
                    "kind": "protection",
                    "key": protocol.encode_key(b"wrong-key"),
                    "watermark": "1", "resume": True})
                return await peer.read()

        frame = asyncio.run(asyncio.wait_for(steal(), 15))
        assert frame["type"] == "error"
        assert "key mismatch" in frame["message"]

    def test_fresh_open_of_existing_stream_rejected(self, harness):
        """Re-opening an existing stream without resume is an error."""
        values = TemperatureSensorGenerator(eta=60, seed=43).generate(800)
        host, port = harness.service.address
        client = RemoteClient(host, port)
        session = client.protect("twice", "1", KEY, params=PARAMS)
        session.feed(values)
        client.close()

        with RemoteClient(host, port) as again:
            with pytest.raises(RemoteError, match="resume"):
                again.protect("twice", "1", KEY, params=PARAMS)

    def test_wrong_version_refused(self, harness):
        host, port = harness.service.address

        async def bad_hello():
            async with RawPeer.connect(host, port) as peer:
                await peer.send({"type": "hello", "version": 999})
                return await peer.read()

        frame = asyncio.run(asyncio.wait_for(bad_hello(), 15))
        assert frame["type"] == "error"
        assert frame["code"] == "version"

    def test_protocol_1_json_hello_refused(self, harness):
        """A protocol-1 peer opens with a JSON body; it does not decode
        as a binary frame, so the server answers with a ``protocol``
        error and closes instead of serving it."""
        host, port = harness.service.address

        async def json_hello():
            async with RawPeer.connect(host, port) as peer:
                await peer.channel.write_message(
                    b'{"type":"hello","version":1}')
                refusal = await peer.read()
                return refusal, await peer.channel.read_message()

        frame, after = asyncio.run(asyncio.wait_for(json_hello(), 15))
        assert frame["type"] == "error"
        assert frame["code"] == "protocol"
        assert after is None
        assert harness.service.status()["connections"] == 0


class TestObservability:
    """The STATUS surface: live snapshots on every cell, even draining."""

    def test_status_matrix_reports_labeled_traffic(self, matrix):
        """STATUS round-trips on every transport and the snapshot
        carries non-zero per-transport frame counters plus the tenant's
        per-stream health stats."""
        harness, kwargs = matrix
        values = TemperatureSensorGenerator(eta=60, seed=61).generate(1500)
        host, port = harness.service.address
        with RemoteClient(host, port, **kwargs) as client:
            session = client.protect("obs", "1", KEY, params=PARAMS)
            for start in range(0, 1500, 500):
                session.feed(values[start:start + 500])
            # Before finish: a flushed stream is evicted from the hub
            # (and from the stats), so the live snapshot is the one
            # carrying per-stream health.
            snapshot = client.status()
            session.finish()
        assert snapshot["server"]["draining"] is False
        assert snapshot["server"]["pushes"] >= 3
        assert snapshot["server"]["uptime_seconds"] > 0

        stream = snapshot["tenants"]["default"]["stats"]["obs"]
        assert stream["items_in"] == 1500
        assert stream["checkpoint_lag"] == 0  # checkpoint_every=1
        assert stream["last_checkpoint_ts"] is not None

        cell = f"transport={kwargs['transport']}"
        counters = snapshot["metrics"]["counters"]
        assert counters[f"server_frames_in_total{{{cell}}}"] > 0
        assert counters[f"server_frames_out_total{{{cell}}}"] > 0
        assert counters[f"server_bytes_in_total{{{cell}}}"] > 0
        push_us = snapshot["metrics"]["histograms"][
            "hub_push_us{tenant=default}"]
        assert push_us["count"] >= 3
        assert sum(push_us["buckets"].values()) == push_us["count"]

    def test_status_reports_transport(self, harness):
        """The operator status names the transport it serves."""
        host, port = harness.service.address
        with RemoteClient(host, port) as client:
            client.protect("st", "1", KEY, params=PARAMS)
            status = harness.service.status()
        assert status["transport"] == "tcp"
        assert status["tenants"] == ["default"]

    def test_status_while_draining_gets_final_snapshot(self, harness):
        """ISSUE 9 bugfix guard: a STATUS request racing a drain must be
        answered with a well-formed final snapshot before the BYE — not
        a connection reset."""
        values = TemperatureSensorGenerator(eta=60, seed=62).generate(1000)
        host, port = harness.service.address
        with RemoteClient(host, port) as feeder:
            session = feeder.protect("drainee", "1", KEY, params=PARAMS)
            session.feed(values)

            async def status_racing_drain():
                async with RawPeer.connect(host, port) as peer:
                    await peer.hello()
                    drain = asyncio.ensure_future(
                        harness.service.drain("sigterm"))
                    # The drain is now racing our request down the same
                    # connection; the grace window must cover it.
                    await peer.send({"type": "status"})
                    frames = []
                    while True:
                        frame = await peer.read()
                        frames.append(frame)
                        if frame["type"] == "bye":
                            break
                    await drain
                    return frames

            frames = harness._call(
                asyncio.wait_for(status_racing_drain(), 20))
        types = [frame["type"] for frame in frames]
        assert "status" in types and types[-1] == "bye"
        snapshot = frames[types.index("status")]["payload"]
        assert snapshot["server"]["draining"] is True
        assert "drainee" in snapshot["tenants"]["default"]["stats"]

    def test_simulate_crash_resumes_bit_identically(self, harness):
        """The loadgen's crash primitive: an aborted transport mid-feed
        redials, resumes, and the output stays bit-identical."""
        values = TemperatureSensorGenerator(eta=60, seed=63).generate(2000)
        host, port = harness.service.address
        with RemoteClient(host, port,
                          retry=RetryPolicy(max_delay=0.05)) as client:
            session = client.protect("crashy", "1", KEY, params=PARAMS)
            out = [session.feed(values[:500])]
            client.simulate_crash()
            out += [session.feed(values[start:start + 500])
                    for start in range(500, 2000, 500)]
            out.append(session.finish())
            marked = np.concatenate([p for p in out if p.size])
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)
        assert client.reconnects >= 1

    def test_every_redial_counts_once(self, harness):
        """A redial after ``simulate_crash()`` adds exactly 1 to
        ``reconnects``, whichever operation finds the link down:
        finish, status, open or feed."""
        values = TemperatureSensorGenerator(eta=60, seed=68).generate(1000)
        host, port = harness.service.address
        counts = []
        with RemoteClient(host, port,
                          retry=RetryPolicy(max_delay=0.05)) as client:
            first = client.protect("first", "1", KEY, params=PARAMS)
            first.feed(values[:500])
            client.simulate_crash()
            first.finish()
            counts.append(client.reconnects)
            client.simulate_crash()
            client.status()
            counts.append(client.reconnects)
            client.simulate_crash()
            second = client.protect("second", "1", KEY, params=PARAMS)
            counts.append(client.reconnects)
            client.simulate_crash()
            second.feed(values[500:])
            counts.append(client.reconnects)
            second.finish()
        assert counts == [1, 2, 3, 4]

    @pytest.mark.parametrize("workers,pushes,chunk,crash_every", [
        pytest.param(3, 6, 128, 2, id="small"),
        pytest.param(6, 10, 256, 3, id="bench"),
    ])
    def test_loadgen_smoke(self, workers, pushes, chunk, crash_every):
        """A churn fleet: exactly-once holds, latency is measured, and
        the spawned server's lifetime counters ride along."""
        from repro.obs.loadgen import run_loadgen

        summary = run_loadgen(workers=workers, pushes=pushes, chunk=chunk,
                              crash_every=crash_every, verify_bits=True)
        assert summary["verify_failures"] == 0
        assert summary["worker_errors"] == []
        assert summary["items"] == workers * pushes * chunk
        assert summary["crashes"] > 0
        assert summary["resumes"] == summary["crashes"]
        # One latency sample per feed plus the finish.
        assert summary["push_ms"]["count"] == workers * (pushes + 1)
        assert summary["push_ms"]["p50"] is not None
        assert summary["push_ms"]["p99"] is not None
        assert summary["server"]["pushes"] >= workers * pushes


class TestStoreLifecycle:
    @pytest.mark.parametrize("blocker", ["blocked", "%meta"],
                             ids=["tenant-dir", "sidecar-root"])
    def test_unopenable_tenant_store_gets_store_error(self, tmp_path,
                                                      blocker):
        """A tenant whose session or sidecar store cannot open is
        refused with a ``store`` ERROR on the first dial, counted in
        ``errors``; nothing reaches the loop's exception handler, and
        the refused client keeps no socket open."""
        store = tmp_path / "store"
        store.mkdir()
        (store / blocker).write_text("a file where a directory belongs")

        async def hello_blocked():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            service = StreamService(store_path=store)
            client = AsyncRemoteClient(*await service.start(),
                                       tenant="blocked",
                                       retry=RetryPolicy(max_delay=0.05))
            try:
                with pytest.raises(RemoteError) as refused:
                    await client.connect()
                leftover = client._channel
            finally:
                await client.close()
                await service.drain()
            return refused.value.code, service.errors, unhandled, leftover

        code, errors, unhandled, leftover = asyncio.run(
            asyncio.wait_for(hello_blocked(), 30))
        assert code == "store"
        assert errors == 1
        assert unhandled == []
        assert leftover is None  # the refused client closed its socket

    def test_checkpoint_interval_alone_persists_streams(self, tmp_path):
        """With no per-push cadence, the wall-clock sweep brings a pushed
        stream's checkpoint and sidecar to the store, and ``drain()``
        leaves no task pending."""
        values = TemperatureSensorGenerator(eta=60, seed=69).generate(1000)

        async def sweep():
            before = asyncio.all_tasks()
            service = StreamService(store_path=tmp_path / "store",
                                    checkpoint_every=0,
                                    checkpoint_interval=0.05)
            host, port = await service.start()
            loop = asyncio.get_running_loop()
            async with AsyncRemoteClient(host, port) as client:
                session = await client.protect("swept", "1", KEY,
                                               params=PARAMS)
                await session.feed(values)
                hub = service.hub_for("default")
                meta = service._meta_stores["default"]
                deadline = loop.time() + 2.0
                while loop.time() < deadline and not (
                        "swept" in hub.store and "swept" in meta):
                    await asyncio.sleep(0.01)
                swept = "swept" in hub.store and "swept" in meta
                await session.finish()
            await service.drain()
            pending = [repr(task) for task in asyncio.all_tasks() - before
                       if not task.done()]
            return swept, pending

        swept, pending = asyncio.run(asyncio.wait_for(sweep(), 30))
        assert swept
        assert pending == []

    def test_one_failed_save_does_not_stop_the_drain(self, tmp_path):
        """A store whose save fails for stream ``a`` alone: the drain
        still lands the other streams' checkpoints and sidecars, and
        counts the one failure."""
        values = TemperatureSensorGenerator(eta=60, seed=77).generate(600)
        service = StreamService(store_path=tmp_path / "store",
                                checkpoint_every=0)
        hub = service.hub_for("default")
        for stream_id in ("a", "b", "c"):
            hub.protect(stream_id, "1", KEY, params=PARAMS,
                        encoding="initial")
            hub.push(stream_id, values)
        save = hub.store.save

        def save_failing_for_a(stream_id, state):
            if stream_id == "a":
                raise CheckpointStoreError("injected: disk full")
            return save(stream_id, state)

        hub.store.save = save_failing_for_a
        asyncio.run(asyncio.wait_for(service.drain(), 30))
        assert hub.store.ids() == ("b", "c")
        meta = service._meta_stores["default"]
        assert "b" in meta and "c" in meta
        assert service.errors == 1
        counters = service.metrics.snapshot()["counters"]
        assert counters["server_checkpoint_failures_total"] == 1


def _live_timers(loop) -> set:
    """The loop's timers still scheduled (event-loop internals)."""
    return {handle for handle in loop._scheduled if not handle.cancelled()}


def _open_frame(stream_id: str) -> dict:
    return {"type": "open", "stream_id": stream_id, "kind": "protection",
            "key": protocol.encode_key(KEY), "watermark": "1",
            "params": _params_dict()}


class TestDrainGrace:
    """The drain contract of the frame loop: a handler parked in a read
    when the drain starts still gets the grace window, then says BYE."""

    @staticmethod
    async def _open(peer: RawPeer, stream_id) -> None:
        await peer.hello()
        await peer.send(_open_frame(stream_id))
        assert (await peer.read())["op"] == "open"
        assert (await peer.read())["type"] == "credit"

    def test_idle_client_gets_bye_within_grace(self, harness):
        host, port = harness.service.address

        async def idle_through_drain():
            async with RawPeer.connect(host, port) as peer:
                await self._open(peer, "idle")
                loop = asyncio.get_running_loop()
                started = loop.time()
                drain = asyncio.ensure_future(harness.service.drain())
                frame = await peer.read()
                waited = loop.time() - started
                await drain
                return frame, waited

        frame, waited = harness._call(idle_through_drain())
        assert frame == {"type": "bye", "reason": "drain"}
        assert DRAIN_GRACE_SECONDS - 0.01 <= waited \
            < DRAIN_GRACE_SECONDS + 1.0

    def test_push_inside_grace_is_answered_and_checkpointed(self,
                                                            harness):
        values = TemperatureSensorGenerator(eta=60, seed=65).generate(800)
        host, port = harness.service.address

        async def push_during_drain():
            async with RawPeer.connect(host, port) as peer:
                await self._open(peer, "late")
                drain = asyncio.ensure_future(harness.service.drain())
                await asyncio.sleep(DRAIN_GRACE_SECONDS / 5)
                await peer.send({"type": "push", "stream_id": "late",
                                 "seq": 0, "delivered": 0,
                                 "values": values})
                frames = []
                while not frames or frames[-1]["type"] != "bye":
                    frames.append(await peer.read())
                await drain
                return frames

        frames = harness._call(push_during_drain())
        assert [frame["type"] for frame in frames] \
            == ["result", "credit", "bye"]
        assert frames[0]["op"] == "push" and frames[0]["items_in"] == 800
        entry = harness.service.hub_for("default").store.entry("late")
        assert entry["state"]["scan"]["counters"]["items"] == 800


class SilencingProxy:
    """A TCP relay in front of a server that can make the server look
    silent: after :meth:`silence`, the first connection relays nothing
    more from the server.  Later connections relay normally, and open
    only once the first is closed upstream (so the server has let go of
    its streams before the client resumes them)."""

    def __init__(self, upstream) -> None:
        self._upstream = upstream
        self._muted = asyncio.Event()
        self._first_closed = asyncio.Event()
        self._accepted = 0
        self._relays: "list[asyncio.Task]" = []
        self._server = None
        self.address = None

    async def start(self):
        self._server = await asyncio.start_server(self._accept,
                                                  "127.0.0.1", 0)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    def silence(self) -> None:
        self._muted.set()

    async def _accept(self, reader, writer) -> None:
        self._accepted += 1
        first = self._accepted == 1
        if not first:
            await self._first_closed.wait()
        up_reader, up_writer = await asyncio.open_connection(
            *self._upstream)
        self._relays += [
            asyncio.ensure_future(self._relay(reader, up_writer,
                                              done=first)),
            asyncio.ensure_future(self._relay(
                up_reader, writer, muted=self._muted if first else None))]

    async def _relay(self, reader, writer, muted=None, done=False):
        try:
            while True:
                data = await reader.read(1 << 16)
                if not data:
                    break
                if muted is None or not muted.is_set():
                    writer.write(data)
                    await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if done:
                self._first_closed.set()

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for relay in self._relays:
            relay.cancel()
        await asyncio.gather(*self._relays, return_exceptions=True)


def _hello_then(frames):
    """A peer that answers HELLO, sends ``frames`` and goes silent."""
    async def handler(channel):
        try:
            await channel.read_message()
            hello = {"type": "hello",
                     "version": protocol.PROTOCOL_VERSION, "credits": 1}
            await channel.write_messages([protocol.CODEC.encode(frame)
                                          for frame in (hello, *frames)])
            while await channel.read_message() is not None:
                pass
        finally:
            await channel.close()
    return handler


class TestOpTimeout:
    """The client's per-read op timeout against a server gone silent."""

    @staticmethod
    def _time_one_read(op_timeout, frames=(), stall_seconds=None):
        """Time one ``_read`` from a peer that answered HELLO and then
        sent only ``frames``; with ``stall_seconds``, the client's reads
        first sit out an injected chaos stall that long.

        Returns the seconds the read took, the reset it raised, and the
        tasks and live timers it left behind.
        """
        async def read_once():
            listener = await TcpTransport().serve("127.0.0.1", 0,
                                                  _hello_then(frames))
            client = AsyncRemoteClient(
                *listener.address, retry=RetryPolicy(op_timeout=op_timeout))
            await client.connect()
            if stall_seconds is not None:
                client._channel = ChaosChannel(
                    client._channel, FaultInjector(FaultPlan(seed=1)),
                    TransportFaults(stall_rate=1.0,
                                    stall_seconds=stall_seconds),
                    site="client.transport")
            loop = asyncio.get_running_loop()
            tasks, timers = asyncio.all_tasks(), _live_timers(loop)
            started = loop.time()
            with pytest.raises(ConnectionResetError) as reset:
                await client._read()
            waited = loop.time() - started
            await asyncio.sleep(0)
            new_tasks = [task for task in asyncio.all_tasks() - tasks
                         if not task.done()]
            timers = _live_timers(loop) - timers
            await client._drop_transport()
            listener.close()
            await listener.wait_closed()
            return waited, str(reset.value), new_tasks, timers

        return asyncio.run(asyncio.wait_for(read_once(), 15))

    def test_silent_peer_read_times_out_cleanly(self):
        """``_read`` raises the op-timeout reset after about
        ``op_timeout`` and leaves no task or timer of that read."""
        waited, reset, new_tasks, timers = self._time_one_read(0.3)
        assert reset == "server silent for 0.3s (op timeout)"
        assert 0.3 <= waited < 1.3
        assert new_tasks == []
        assert timers == set()

    def test_chaos_stall_costs_only_the_op_timeout(self):
        """A client-side chaos stall longer than the op timeout is cut
        short by it: the frame already sent waits behind a 2 s stall,
        and the read gives up after about 0.3 s, not 2 s."""
        credit = {"type": "credit", "stream_id": "s", "credits": 1}
        waited, reset, new_tasks, timers = self._time_one_read(
            0.3, frames=[credit], stall_seconds=2.0)
        assert reset == "server silent for 0.3s (op timeout)"
        assert 0.3 <= waited < 1.0
        assert new_tasks == []
        assert timers == set()

    def test_silent_server_mid_feed_resumes_bit_identically(self,
                                                            harness):
        """A server that goes silent mid-feed costs one op timeout: the
        SDK reconnects, resumes and delivers every item exactly once."""
        values = TemperatureSensorGenerator(eta=60, seed=66).generate(2000)
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)

        async def feed_through_silence():
            proxy = SilencingProxy(harness.service.address)
            host, port = await proxy.start()
            policy = RetryPolicy(op_timeout=0.5, max_delay=0.05)
            out = []
            async with AsyncRemoteClient(host, port, retry=policy) as client:
                session = await client.protect("hushed", "1", KEY,
                                               params=PARAMS)
                out.append(await session.feed(values[:500]))
                proxy.silence()
                for start in range(500, 2000, 500):
                    out.append(await session.feed(values[start:start + 500]))
                out.append(await session.finish())
                reconnects = client.reconnects
            await proxy.close()
            return np.concatenate([p for p in out if p.size]), reconnects

        marked, reconnects = asyncio.run(
            asyncio.wait_for(feed_through_silence(), 30))
        assert reconnects == 1
        assert np.array_equal(marked, reference)


#: One PUSH frame of this many items is 32 scanner sub-batches at
#: ``PARAMS``' window (``PARAMS.scan_batch`` = 512).
BIG_PUSH = 16384


def _archive_values(seed: int) -> np.ndarray:
    """A stream of one big push followed by a 1,000-item tail."""
    return TemperatureSensorGenerator(eta=60, seed=seed).generate(
        BIG_PUSH + 1000)


async def _until_sliced(hub, stream_id: str, client=None,
                        frames: int = 0) -> None:
    """Wait until the server has pushed a first sub-batch of the
    stream into its hub (the push it serves is then under way) and
    ``client`` has sent at least ``frames`` frames.

    Polls the server thread's hub from the client's loop (plain int
    reads), so the wait costs the server nothing.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 20
    while hub.stats(stream_id)["pushes"] < 1 \
            or (client is not None and client.frames_sent < frames):
        assert loop.time() < deadline, "the push never reached the hub"
        await asyncio.sleep(0.001)


class TestSlicedPushes:
    """A large PUSH is ingested one scanner sub-batch at a time, with
    the serving loop yielded in between; every interleaving that opens
    keeps outputs bit-identical and exactly-once."""

    def test_sensor_push_overtakes_archive_push(self, harness):
        """The head-of-line bound: a 256-item sensor push sent about
        20 ms into a 16,384-item archive push on another connection is
        answered before the archive push is."""
        archive = _archive_values(seed=71)[:BIG_PUSH]
        sensor = TemperatureSensorGenerator(eta=60, seed=72).generate(256)
        host, port = harness.service.address

        async def race():
            loop = asyncio.get_running_loop()
            done = {}

            async def timed(name, session, values):
                out = await session.feed(values)
                done[name] = loop.time()
                return out

            async with AsyncRemoteClient(host, port, tenant="archive",
                                         push_items=BIG_PUSH) as b, \
                    AsyncRemoteClient(host, port, tenant="sensors") as a:
                recording = await b.protect("rec", "1", KEY, params=PARAMS)
                probe = await a.protect("probe", "1", KEY, params=PARAMS,
                                        encoding="initial")
                started = loop.time()
                big = asyncio.ensure_future(
                    timed("archive", recording, archive))
                await asyncio.sleep(0.02)
                small = await timed("sensor", probe, sensor)
                big = await big
                big = np.concatenate([big, await recording.finish()])
                small = np.concatenate([small, await probe.finish()])
            return ({name: at - started for name, at in done.items()},
                    big, small)

        done, big, small = asyncio.run(asyncio.wait_for(race(), 60))
        assert done["sensor"] < done["archive"], done
        assert np.array_equal(
            big, watermark_stream(archive, "1", KEY, params=PARAMS)[0])
        assert np.array_equal(
            small, watermark_stream(sensor, "1", KEY, params=PARAMS,
                                    encoding="initial")[0])

    @pytest.mark.parametrize("push_items,frames",
                             [(4096, 4), (BIG_PUSH, 3)],
                             ids=["frames-in-flight", "reader-paused"])
    def test_client_crash_mid_push_resumes_bit_identically(
            self, matrix, push_items, frames):
        """A client that crashes while the server slices its push is
        let go at the next slice boundary, so its resume can reopen
        the stream (else: 'already open on another connection'); the
        replay then delivers every item exactly once.

        The feed is ``frames`` frames, and the crash comes with three
        in flight: the EOF arrives behind two unread frames.  At 4,096
        items a frame (the client's default) they wait in the server's
        stream reader; at 16,384 they are past its limit, so it stops
        reading the socket and the EOF waits in the kernel.
        """
        harness, kwargs = matrix
        fed = push_items * frames
        values = TemperatureSensorGenerator(eta=60, seed=73).generate(
            fed + 1000)
        host, port = harness.service.address
        hub = harness.service.hub_for("default")

        async def crash_mid_push():
            async with AsyncRemoteClient(
                    host, port, push_items=push_items,
                    retry=RetryPolicy(max_delay=0.05), **kwargs) as client:
                session = await client.protect("r", "1", KEY,
                                               params=PARAMS)
                feed = asyncio.ensure_future(session.feed(values[:fed]))
                # HELLO, OPEN and the three PUSHes the credits allow.
                await _until_sliced(hub, "r", client, frames=5)
                client.simulate_crash()
                out = [await feed,
                       await session.feed(values[fed:]),
                       await session.finish()]
                return np.concatenate(out), client.reconnects

        marked, reconnects = asyncio.run(
            asyncio.wait_for(crash_mid_push(), 60))
        assert reconnects == 1
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(marked, reference)

    def test_drain_mid_push_then_recover_resumes(self, harness):
        """A drain (what SIGTERM runs) that starts between two slices
        checkpoints a half-ingested push; a server restarted with
        --recover over the same store resumes it bit-identically."""
        values = _archive_values(seed=74)
        service = harness.service
        hub = service.hub_for("default")
        drains, drained_at = [], []
        push = hub.push

        def push_then_drain(stream_id, chunk):
            out = push(stream_id, chunk)
            if hub.stats(stream_id)["pushes"] == 2:
                drains.append(asyncio.ensure_future(service.drain()))
            return out

        checkpoint_all = service.checkpoint_all

        def recording_checkpoint_all():
            drained_at.append(hub.offsets("d")["items_in"])
            return checkpoint_all()

        hub.push = push_then_drain
        service.checkpoint_all = recording_checkpoint_all
        host, port = service.address
        client = RemoteClient(host, port, push_items=BIG_PUSH,
                              retry=PATIENT)
        try:
            session = client.protect("d", "1", KEY, params=PARAMS)
            out = [session.feed(values[:BIG_PUSH])]
            harness._call(service.serve_until_drained())
            assert len(drains) == 1 and drains[0].done()
            harness.restart_recovered()
            out += [session.feed(values[BIG_PUSH:]), session.finish()]
        finally:
            client.close()
        assert drained_at and 0 < drained_at[0] < BIG_PUSH, drained_at
        assert client.reconnects >= 1
        reference, _ = watermark_stream(values, "1", KEY, params=PARAMS)
        assert np.array_equal(np.concatenate(out), reference)

    def test_eviction_between_slices_keeps_bits(self, tmp_path):
        """With one live session per tenant, another connection's pushes
        evict the slicing stream between its slices; each next slice
        restores it from the store, and both streams stay exact."""
        server = ServerHarness(tmp_path, checkpoint_every=1, credits=3,
                               max_live_sessions=1)
        server.start()
        values = _archive_values(seed=75)[:BIG_PUSH]
        other = TemperatureSensorGenerator(eta=60, seed=76).generate(
            256 * 400)
        hub = server.service.hub_for("default")
        push = hub.push
        resident = []

        def recording_push(stream_id, chunk):
            if stream_id == "big":
                resident.append(hub.stats("big")["live"])
            return push(stream_id, chunk)

        hub.push = recording_push

        async def interleave():
            host, port = server.service.address
            async with AsyncRemoteClient(host, port,
                                         push_items=BIG_PUSH) as one, \
                    AsyncRemoteClient(host, port) as two:
                big = await one.protect("big", "1", KEY, params=PARAMS)
                small = await two.protect("small", "1", KEY,
                                          params=PARAMS, encoding="initial")
                feed = asyncio.ensure_future(big.feed(values))
                small_out, fed = [], 0
                while not feed.done() and fed < other.size:
                    small_out.append(
                        await small.feed(other[fed:fed + 256]))
                    fed += 256
                big_out = np.concatenate([await feed, await big.finish()])
                small_out.append(await small.finish())
            return big_out, np.concatenate(small_out), fed

        try:
            big_out, small_out, fed = asyncio.run(
                asyncio.wait_for(interleave(), 60))
        finally:
            server.drain()
            server.stop()
        assert len(resident) == BIG_PUSH // PARAMS.scan_batch
        assert not all(resident[1:]), "never evicted between slices"
        assert np.array_equal(
            big_out, watermark_stream(values, "1", KEY, params=PARAMS)[0])
        assert np.array_equal(
            small_out, watermark_stream(other[:fed], "1", KEY,
                                        params=PARAMS,
                                        encoding="initial")[0])

    def test_status_mid_push_sees_a_partial_push(self, harness):
        """A STATUS from another connection is answered between two
        slices: before the push's RESULT, with the stream part-way
        through it and the frame not yet counted."""
        values = _archive_values(seed=77)[:BIG_PUSH]
        host, port = harness.service.address
        hub = harness.service.hub_for("default")

        async def status_mid_push():
            async with AsyncRemoteClient(host, port,
                                         push_items=BIG_PUSH) as pusher, \
                    AsyncRemoteClient(host, port) as watcher:
                session = await pusher.protect("s", "1", KEY,
                                               params=PARAMS)
                feed = asyncio.ensure_future(session.feed(values))
                await _until_sliced(hub, "s")
                snapshot = await watcher.status()
                answered_first = not feed.done()
                out = np.concatenate([await feed, await session.finish()])
            return snapshot, answered_first, out

        snapshot, answered_first, out = asyncio.run(
            asyncio.wait_for(status_mid_push(), 60))
        assert answered_first
        stream = snapshot["tenants"]["default"]["stats"]["s"]
        assert 0 < stream["items_in"] < BIG_PUSH, stream
        assert stream["pushes"] == stream["items_in"] // PARAMS.scan_batch
        assert snapshot["server"]["pushes"] == 0
        assert np.array_equal(
            out, watermark_stream(values, "1", KEY, params=PARAMS)[0])


class TestTaskBudget:
    def test_tasks_per_connection_do_not_grow_with_pushes(self, harness):
        """Serving many pushes creates no asyncio task per frame, per
        read or per slice, on the server or on the client, and leaves
        no timer of any read behind: 200 pushes of one sub-batch, then
        20 pushes of three."""
        for pushes, chunk in ((200, 64), (20, 2 * PARAMS.scan_batch + 76)):
            grown = self._serve(harness, f"tasks-{chunk}", pushes, chunk)
            assert grown["server"] <= 2, (chunk, grown)
            assert grown["client"] <= 2, (chunk, grown)
            assert grown["timers"] <= 0 and grown["server_timers"] <= 0, \
                (chunk, grown)

    @staticmethod
    def _serve(harness, stream_id: str, pushes: int, chunk: int) -> dict:
        """Tasks and timers created while serving ``pushes`` pushes."""
        values = TemperatureSensorGenerator(eta=60, seed=67).generate(
            (pushes + 1) * chunk)
        created = {"server": 0, "client": 0}

        def counting(side):
            def factory(loop, coro, **kwargs):
                created[side] += 1
                return asyncio.Task(coro, loop=loop, **kwargs)
            return factory

        async def set_factory(factory):
            asyncio.get_running_loop().set_task_factory(factory)

        async def server_timers():
            return len(_live_timers(asyncio.get_running_loop()))

        async def serve_pushes():
            loop = asyncio.get_running_loop()
            loop.set_task_factory(counting("client"))
            async with AsyncRemoteClient(*harness.service.address,
                                         push_items=chunk) as client:
                session = await client.protect(stream_id, "1", KEY,
                                               params=PARAMS)
                await session.feed(values[:chunk])
                timers = (len(_live_timers(loop)),
                          harness._call(server_timers()))
                before = dict(created)
                for index in range(1, pushes + 1):
                    await session.feed(
                        values[index * chunk:(index + 1) * chunk])
                grown = {side: created[side] - before[side]
                         for side in created}
                grown["timers"] = len(_live_timers(loop)) - timers[0]
                grown["server_timers"] = harness._call(
                    server_timers()) - timers[1]
                await session.finish()
            return grown

        harness._call(set_factory(counting("server")))
        try:
            return asyncio.run(asyncio.wait_for(serve_pushes(), 60))
        finally:
            harness._call(set_factory(None))


class TestServeJsonLifecycle:
    """`repro serve --json --status-interval`: the operator surface as a
    real subprocess — event-tagged lines, periodic snapshots, and a
    SIGTERM drain that still answers a final STATUS."""

    def test_event_lines_and_sigterm_drain(self, tmp_path):
        import json
        import signal
        import subprocess
        import sys

        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store"), "--json",
             "--status-interval", "0.2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))})
        try:
            ready = json.loads(server.stdout.readline())
            assert ready["event"] == "ready"
            port = ready["serving"]["port"]

            values = TemperatureSensorGenerator(
                eta=60, seed=64).generate(1200)
            with RemoteClient("127.0.0.1", port) as client:
                session = client.protect("ops", "1", KEY, params=PARAMS)
                session.feed(values)
                snapshot = client.status()
            assert snapshot["server"]["pushes"] >= 1

            status_line = json.loads(server.stdout.readline())
            assert status_line["event"] == "status"
            assert status_line["status"]["server"]["draining"] is False

            server.send_signal(signal.SIGTERM)
            events = [json.loads(line) for line in server.stdout]
            assert server.wait(timeout=15) == 0
            assert events[-1]["event"] == "drained"
            assert events[-1]["drained"] is True
            assert events[-1]["pushes"] >= 1
        finally:
            if server.poll() is None:
                server.kill()
            server.stdout.close()
            server.stderr.close()

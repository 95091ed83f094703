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
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import DetectionSession, WatermarkParams, watermark_stream
from repro.chaos import RetryPolicy
from repro.errors import RemoteError
from repro.server import protocol
from repro.server.client import RemoteClient
from repro.server.service import StreamService, _Connection
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
    async def connect(cls, host, port) -> "RawPeer":
        return cls(await TcpTransport().connect(host, port))

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
            peer = await RawPeer.connect(host, port)
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
            peer = await RawPeer.connect(host, port)
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
            peer = await RawPeer.connect(host, port)
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

    def test_resume_with_wrong_key_rejected(self, harness):
        """Resuming a live stream with a different key is refused."""
        values = TemperatureSensorGenerator(eta=60, seed=42).generate(800)
        host, port = harness.service.address
        client = RemoteClient(host, port)
        session = client.protect("keyed", "1", KEY, params=PARAMS)
        session.feed(values)
        client.close()

        async def steal():
            peer = await RawPeer.connect(host, port)
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
            peer = await RawPeer.connect(host, port)
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
            peer = await RawPeer.connect(host, port)
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
                peer = await RawPeer.connect(host, port)
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

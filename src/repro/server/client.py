"""Client SDK: remote sessions with reconnect-and-resume.

:class:`AsyncRemoteClient` (asyncio) and :class:`RemoteClient` (its
synchronous wrapper, running a private event loop on a daemon thread)
speak the :mod:`repro.server.protocol` frame protocol to a
:class:`~repro.server.service.StreamService`.  Sessions obtained from
:meth:`~AsyncRemoteClient.protect` / :meth:`~AsyncRemoteClient.detect`
mirror the in-process :class:`~repro.pipeline.ProtectionSession` /
:class:`~repro.pipeline.DetectionSession` push/finish API, so code
written against local sessions works remotely by swapping the
constructor::

    with RemoteClient("127.0.0.1", 7707) as client:
        session = client.protect("sensor-1", "(c) DataCorp", b"k1")
        for chunk in chunks:
            forward(session.feed(chunk))      # watermarked, window-delayed
        forward(session.finish())

**Reconnect-and-resume.**  A session retains every item it has fed (the
rights owner's raw stream) and counts every output item it has
delivered.  When the connection drops — network blip, server restart,
even a SIGKILLed server brought back with ``--recover`` — the client
reconnects, re-opens each live stream with ``resume`` and the original
key, reads the server-reported ``items_in``/``items_out`` offsets, and
replays exactly the unseen input suffix.  Redelivered output items are
deduplicated against the delivery counter, so the caller observes each
output item **exactly once**, bit-identical to an uninterrupted run
(asserted by ``tests/integration/test_server.py`` and
``examples/remote_fleet.py``).

**Flow control.**  The server grants N outstanding PUSH frames per
stream; :meth:`~AsyncRemoteSession.feed` splits large chunks and keeps
at most that many in flight, waiting for CREDIT frames instead of
buffering unboundedly.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from collections import deque

import numpy as np

from repro.chaos.retry import RetryPolicy
from repro.core.detector import DetectionResult
from repro.core.scanner import ScanCounters
from repro.core.serialize import params_to_dict
from repro.errors import (
    DetectionError,
    ParameterError,
    ProtocolError,
    RemoteError,
    ReproError,
)
from repro.server import protocol
from repro.server.transports import TransportConnection, build_transport

_EMPTY = np.empty(0, dtype=np.float64)

logger = logging.getLogger("repro.server.client")

#: Errors that mean "the connection is gone" (trigger reconnect), as
#: opposed to semantic failures the server reported on a healthy link.
#: ConnectionResetError (raised by our own read path on EOF/BYE/torn
#: frames/op timeouts) is a ConnectionError subclass, so it is covered.
#: ProtocolError is deliberately *not* here: a malformed conversation on
#: a healthy link is a bug to surface, not weather to retry — wire-level
#: damage is converted to ConnectionResetError at the read boundary.
_CONNECTION_ERRORS = (ConnectionError, OSError, EOFError,
                      asyncio.IncompleteReadError)

#: Timeouts differ across asyncio generations (3.10 has both).
_TIMEOUT_ERRORS = (TimeoutError, asyncio.TimeoutError)


class AsyncRemoteSession:
    """One remote stream: the async push/finish API plus resume state.

    Obtained from :meth:`AsyncRemoteClient.protect` /
    :meth:`AsyncRemoteClient.detect`; not constructed directly.
    """

    def __init__(self, client: "AsyncRemoteClient", stream_id: str,
                 kind: str, key: bytes, open_fields: dict) -> None:
        self._client = client
        self.stream_id = stream_id
        self.kind = kind
        self._key = key
        #: Config fields re-sent verbatim on every (re-)open.
        self._open_fields = dict(open_fields)
        #: Every chunk ever fed, in order — the replay source.
        self._retained: "list[np.ndarray]" = []
        self._fed = 0
        #: Output items handed to the caller (exactly-once dedupe line).
        self._delivered = 0
        #: The server's output position for the *next* incoming values
        #: payload (reset from ``items_out`` at every open/resume).
        self._server_pos = 0
        #: Novel outputs received while not inside feed() (replay).
        self._pending: "list[np.ndarray]" = []
        self._seq = 0
        self._finished = False
        self._detection: "dict | None" = None

    # -- bookkeeping ----------------------------------------------------
    @property
    def items_ingested(self) -> int:
        """Items fed into this session so far (client-side count)."""
        return self._fed

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has completed."""
        return self._finished

    def _retained_suffix(self, offset: int) -> np.ndarray:
        """Concatenated retained items from absolute offset ``offset``."""
        if offset >= self._fed:
            return _EMPTY
        flat = (np.concatenate(self._retained) if self._retained
                else _EMPTY)
        return flat[offset:]

    def _accept_output(self, frame: dict) -> None:
        """Deduplicate one RESULT's values into the pending buffer.

        The values start at server output position ``_server_pos``;
        anything before ``_delivered`` was already handed to the caller
        (a redelivery after resume) and is dropped.  Novel items land in
        ``_pending`` — never in transient local state — so a connection
        loss between receiving an output and returning it to the caller
        cannot discard it (it is drained by the next feed/finish).

        The values must end exactly at the frame's ``items_out``.  A
        body torn inside its payload on an 8-byte boundary still
        decodes, just with fewer values; that is wire damage, raised as
        :class:`ConnectionResetError` so the caller's resume path
        fetches the range again instead of silently losing items.
        """
        values = frame["values"]
        if frame["items_out"] - values.size != self._server_pos:
            raise ConnectionResetError(
                f"wire damage: result for stream {self.stream_id!r} "
                f"carries {values.size} values ending at output "
                f"{frame['items_out']}, but the next output is "
                f"{self._server_pos}")
        skip = min(max(self._delivered - self._server_pos, 0), values.size)
        self._server_pos += values.size
        novel = values[skip:]
        self._delivered += novel.size
        if novel.size:
            self._pending.append(novel)

    def _take_pending(self) -> "list[np.ndarray]":
        pending, self._pending = self._pending, []
        return pending

    # -- the session API ------------------------------------------------
    async def feed(self, chunk) -> np.ndarray:
        """Push one chunk; return the (novel) output items released."""
        if self._finished:
            raise ParameterError(
                "session already finished; start a new one")
        array = np.asarray(chunk, dtype=np.float64).ravel()
        self._retained.append(array)
        self._fed += array.size
        return await self._client._feed(self, array)

    async def finish(self) -> np.ndarray:
        """End the stream; return the remaining (novel) output items."""
        if self._finished:
            raise ParameterError("session already finished")
        return await self._client._finish(self)

    def result(self) -> DetectionResult:
        """The reconstructed detection evidence (after :meth:`finish`)."""
        if self.kind != "detection":
            raise DetectionError(
                f"stream {self.stream_id!r} is a protection stream; "
                "only detection streams have voting results"
            )
        if self._detection is None:
            raise DetectionError(
                "no remote evidence yet; detection results arrive with "
                "finish()"
            )
        payload = self._detection
        return DetectionResult(
            buckets_true=[int(v) for v in payload["buckets_true"]],
            buckets_false=[int(v) for v in payload["buckets_false"]],
            counters=ScanCounters.from_dict(payload["counters"]),
            abstentions=int(payload["abstentions"]),
            vote_threshold=int(payload["vote_threshold"]))


class AsyncRemoteClient:
    """Asyncio client for a :class:`~repro.server.service.StreamService`.

    Parameters
    ----------
    host, port:
        The server endpoint.
    tenant:
        Tenant namespace; streams of different tenants never collide.
    retry:
        The :class:`~repro.chaos.retry.RetryPolicy` governing
        reconnects: attempt budget, exponential backoff with full
        jitter, per-operation timeout and overall deadline.  The
        default (``RetryPolicy()``) rides out a server restart with
        ``--recover``.  Connection-level failures retry; semantic
        failures (wrong key, protocol violations, server-reported
        errors) fail fast.
    push_items:
        Maximum items per PUSH frame; larger chunks are split and
        pipelined inside the server's credit window.
    transport:
        Registered transport name (``tcp``, ``websocket``, or a
        plugin); must match what the server listens on.
    """

    def __init__(self, host: str, port: int, *, tenant: str = "default",
                 retry: "RetryPolicy | None" = None,
                 push_items: int = 4096,
                 transport: str = "tcp",
                 max_frame_bytes: int = protocol.MAX_FRAME_BYTES) -> None:
        self._host = host
        self._port = int(port)
        self._tenant = tenant
        self._retry = retry if retry is not None else RetryPolicy()
        self._push_items = max(1, int(push_items))
        self._max_frame_bytes = int(max_frame_bytes)
        self._transport_name = transport
        self._transport = build_transport(transport)
        self._channel: "TransportConnection | None" = None
        self._lock = asyncio.Lock()
        self._sessions: "dict[str, AsyncRemoteSession]" = {}
        self._credits: "dict[str, int]" = {}
        self.server_credits: "int | None" = None
        self.reconnects = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    async def __aenter__(self) -> "AsyncRemoteClient":
        """Connect on entry."""
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Say goodbye and close on exit."""
        await self.close()

    # -- connection management ------------------------------------------
    async def connect(self) -> None:
        """Dial the server and complete the HELLO handshake."""
        async with self._lock:
            if self._channel is None:
                await self._dial()

    async def close(self) -> None:
        """Send BYE (best effort) and drop the connection."""
        async with self._lock:
            if self._channel is None:
                return
            try:
                await self._send({"type": "bye"})
                # The server's goodbye surfaces as ConnectionResetError.
                # Cap the wait: a goodbye lost in flight must not stall
                # shutdown for the full op timeout.
                await self._read(timeout=2.0)
            except _CONNECTION_ERRORS + _TIMEOUT_ERRORS + (RemoteError,
                                                           ProtocolError):
                pass
            await self._drop_transport()

    async def status(self) -> dict:
        """Fetch the server's observability snapshot (STATUS frame).

        Returns the decoded ``payload`` dict — server counters,
        per-tenant hub stats and the metrics registry snapshot (see
        :meth:`repro.server.service.StreamService.status_snapshot`).
        Reconnects once if the link is down.
        """
        async with self._lock:
            if self._channel is None:
                await self._dial()
            try:
                await self._send({"type": "status"})
                frame = await self._expect("status")
            except _CONNECTION_ERRORS:
                await self._reconnect()
                try:
                    await self._send({"type": "status"})
                    frame = await self._expect("status")
                except _CONNECTION_ERRORS as exc:
                    # Never leak raw socket errors past the SDK surface.
                    raise RemoteError(
                        "connection-lost",
                        f"connection lost fetching status: {exc}") from exc
            return frame.get("payload", {})

    def simulate_crash(self) -> None:
        """Chaos hook: drop the transport abruptly, with no goodbye.

        The next operation finds the connection gone, redials and
        resumes every live stream — the client-crash path the churn
        load generator (``repro loadgen``) and the integration tests
        exercise deliberately.
        """
        channel = self._channel
        self._channel = None
        if channel is not None:
            channel.abort()

    def wire_stats(self) -> dict:
        """Traffic snapshot: the transport plus byte/frame counters.

        ``bytes_*`` count frame bodies (what the codec produced),
        without the transport's per-message framing overhead.  The
        repo benchmark (``perfbench/served.py``) reads them for its
        ``protocol.bytes_per_item`` figure.
        """
        return {
            "transport": self._transport_name,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
        }

    async def _drop_transport(self) -> None:
        if self._channel is not None:
            try:
                await self._channel.close()
            except (ConnectionError, OSError):
                pass
        self._channel = None

    async def _dial(self) -> None:
        """One reconnect cycle under the retry policy.

        Dials with exponential backoff and full jitter until the
        handshake (and stream resume) succeeds, the attempt budget runs
        out, or the policy deadline expires.  Only connection-level
        errors are retried — a server that *answers* and rejects us
        (wrong key, protocol violation) propagates immediately.
        """
        policy = self._retry
        last_error: "Exception | None" = None
        loop = asyncio.get_running_loop()
        started = loop.time()
        # The full retry budget exists to ride out a server restart
        # without losing stream state; with no sessions yet there is no
        # state to protect, so an unreachable server fails fast.
        attempts = policy.attempts if self._sessions \
            else min(policy.attempts, 4)
        exhausted = f"{attempts} attempts"
        for attempt in range(attempts):
            if attempt:
                delay = policy.backoff_delay(attempt - 1)
                if policy.deadline is not None:
                    remaining = policy.deadline - (loop.time() - started)
                    if remaining <= 0:
                        exhausted = f"{policy.deadline:g}s deadline"
                        break
                    delay = min(delay, remaining)
                await asyncio.sleep(delay)
            try:
                connector = self._transport.connect(
                    self._host, self._port,
                    max_bytes=self._max_frame_bytes)
                if policy.op_timeout is not None:
                    connector = asyncio.wait_for(connector,
                                                 policy.op_timeout)
                self._channel = await connector
                await self._send({"type": "hello",
                                  "version": protocol.PROTOCOL_VERSION,
                                  "tenant": self._tenant})
                reply = await self._expect("hello")
                self.server_credits = reply.get("credits", 1)
                await self._resume_sessions()
                return
            except _CONNECTION_ERRORS + _TIMEOUT_ERRORS as exc:
                last_error = exc
                await self._drop_transport()
        raise RemoteError(
            "unreachable",
            f"cannot reach {self._host}:{self._port} after "
            f"{exhausted}: {last_error}")

    async def _reconnect(self) -> None:
        self.reconnects += 1
        await self._drop_transport()
        await self._dial()

    async def _resume_sessions(self) -> None:
        """Re-open every live stream and replay its unseen suffix."""
        for session in self._sessions.values():
            offsets = await self._open(session, resume=True)
            replay = session._retained_suffix(offsets["items_in"])
            for piece in _split(replay, self._push_items):
                # Replay sequentially (credit-safe); novel outputs land
                # in the session's pending buffer for its next feed().
                session._accept_output(
                    await self._push_one(session, piece))

    async def _open(self, session: AsyncRemoteSession,
                    resume: bool) -> dict:
        frame = dict(session._open_fields)
        frame.update({"type": "open", "stream_id": session.stream_id,
                      "kind": session.kind,
                      "key": protocol.encode_key(session._key),
                      "delivered": session._delivered})
        if resume:
            frame["resume"] = True
        # Stale credits from a previous connection epoch are void; the
        # server re-grants via a CREDIT frame right after its result.
        self._credits[session.stream_id] = 0
        await self._send(frame)
        result = await self._expect("result", op="open",
                                    stream_id=session.stream_id)
        # Redelivery of outputs we never acknowledged (e.g. a result
        # frame lost to a crash) starts exactly at our delivery
        # watermark, so everything in it is novel.
        session._server_pos = session._delivered
        if "values" in result:
            session._accept_output(result)
        session._server_pos = result["items_out"]
        return result

    # -- framed exchanges ------------------------------------------------
    async def _send(self, frame: dict) -> None:
        if self._channel is None:
            raise ConnectionResetError("not connected")
        body = protocol.CODEC.encode(frame,
                                     max_bytes=self._max_frame_bytes)
        self.bytes_sent += len(body)
        self.frames_sent += 1
        await self._channel.write_message(body)

    async def _read(self, timeout: "float | None" = None) -> dict:
        """Read one frame; apply CREDIT grants, raise ERROR / BYE.

        CREDIT frames are returned (already applied) so callers waiting
        on the credit window can notice them; ERROR frames become
        :class:`RemoteError`, BYE and EOF become a lost connection.

        Wire-level damage — a truncated or undecodable frame, or a
        server silent past the policy's per-operation timeout — is
        converted to :class:`ConnectionResetError` here, at the channel
        boundary: to the resume machinery it *is* a lost connection,
        and classifying it here keeps raw transport exceptions from
        leaking to callers.  Semantic :class:`ProtocolError`\\ s raised
        above this boundary (unexpected frame types on a healthy link)
        stay fatal.
        """
        if self._channel is None:
            raise ConnectionResetError("not connected")
        if timeout is None:
            timeout = self._retry.op_timeout
        try:
            reader = self._channel.read_message()
            if timeout is not None:
                reader = asyncio.wait_for(reader, timeout)
            body = await reader
        except ProtocolError as exc:
            # The peer died mid-message (or sent garbage): wire damage.
            raise ConnectionResetError(f"wire damage: {exc}") from exc
        except _TIMEOUT_ERRORS as exc:
            raise ConnectionResetError(
                f"server silent for {timeout:g}s (op timeout)") from exc
        if body is None:
            raise ConnectionResetError("server closed the connection")
        self.bytes_received += len(body)
        self.frames_received += 1
        try:
            frame = protocol.CODEC.decode(body, source="server")
        except ProtocolError as exc:
            # An undecodable body on an intact transport message: the
            # frame was torn in flight — same recovery as a dead link.
            raise ConnectionResetError(f"wire damage: {exc}") from exc
        if frame["type"] == "credit":
            stream_id = frame["stream_id"]
            self._credits[stream_id] = \
                self._credits.get(stream_id, 0) + frame["credits"]
            return frame
        if frame["type"] == "error":
            raise RemoteError(frame["code"], frame["message"])
        if frame["type"] == "bye":
            # The server is draining (or answering our goodbye): treat
            # as a lost connection; resume logic takes over.
            raise ConnectionResetError("server said bye")
        return frame

    async def _expect(self, frame_type: str, **fields) -> dict:
        """Read past credit frames until the expected frame arrives."""
        while True:
            frame = await self._read()
            if frame["type"] == "credit":
                continue
            if frame["type"] != frame_type or any(
                    frame.get(name) != value
                    for name, value in fields.items()):
                raise ProtocolError(
                    f"expected {frame_type} {fields or ''}, got {frame}")
            return frame

    async def _await_credit(self, stream_id: str) -> None:
        """Block until the stream has at least one push credit."""
        while self._credits.get(stream_id, 0) <= 0:
            frame = await self._read()
            if frame["type"] != "credit":
                raise ProtocolError(
                    f"expected a credit frame, got {frame}")

    def _push_frame(self, session: AsyncRemoteSession,
                    piece: np.ndarray) -> "tuple[dict, int]":
        seq = session._seq
        session._seq += 1
        return ({"type": "push", "stream_id": session.stream_id,
                 "seq": seq, "delivered": session._delivered,
                 "values": piece}, seq)

    async def _push_one(self, session: AsyncRemoteSession,
                        piece: np.ndarray) -> dict:
        """One PUSH/RESULT round-trip honouring the credit window."""
        stream_id = session.stream_id
        await self._await_credit(stream_id)
        self._credits[stream_id] -= 1
        frame, seq = self._push_frame(session, piece)
        await self._send(frame)
        return await self._expect("result", op="push", stream_id=stream_id,
                                  seq=seq)

    async def _pipeline(self, session: AsyncRemoteSession,
                        pieces: "list[np.ndarray]") -> None:
        """Push pieces keeping up to the credit window in flight.

        Sends whenever a credit is available, otherwise reads — so the
        server's grant, not client buffering, paces the stream
        (gabriel-style flow control).  Results arrive in push order on
        the single connection; their novel outputs accumulate in the
        session's pending buffer (crash-safe, drained by the caller).
        """
        stream_id = session.stream_id
        queue = deque(pieces)
        expected: "deque[int]" = deque()
        while queue or expected:
            if queue and self._credits.get(stream_id, 0) > 0:
                self._credits[stream_id] -= 1
                frame, seq = self._push_frame(session, queue.popleft())
                await self._send(frame)
                expected.append(seq)
                continue
            frame = await self._read()
            if frame["type"] == "credit":
                continue
            if frame["type"] != "result" or frame.get("op") != "push" \
                    or frame.get("stream_id") != stream_id \
                    or not expected or frame.get("seq") != expected[0]:
                raise ProtocolError(
                    f"expected push result seq "
                    f"{expected[0] if expected else '?'}, got {frame}")
            expected.popleft()
            session._accept_output(frame)

    # -- session operations (called by AsyncRemoteSession) ---------------
    async def _register(self, stream_id: str, kind: str, key,
                        open_fields: dict) -> AsyncRemoteSession:
        if stream_id in self._sessions:
            raise RemoteError(
                "exists", f"stream {stream_id!r} is already open on this "
                          "client")
        session = AsyncRemoteSession(self, stream_id, kind,
                                     key if isinstance(key, bytes)
                                     else str(key).encode("utf-8"),
                                     open_fields)
        async with self._lock:
            if self._channel is None:
                await self._dial()
            try:
                await self._open(session, resume=False)
            except _CONNECTION_ERRORS:
                # One transparent retry on a fresh transport — with
                # resume: the first OPEN may have reached the server
                # before the drop, and the server falls through to a
                # fresh registration when the stream exists nowhere.
                await self._reconnect()
                try:
                    await self._open(session, resume=True)
                except _CONNECTION_ERRORS as exc:
                    # Never leak raw socket errors past the SDK surface.
                    raise RemoteError(
                        "connection-lost",
                        f"connection lost opening stream "
                        f"{stream_id!r}: {exc}") from exc
            self._sessions[stream_id] = session
        return session

    async def _feed(self, session: AsyncRemoteSession,
                    array: np.ndarray) -> np.ndarray:
        async with self._lock:
            if self._channel is None:
                # A live session over a dead channel (simulate_crash, a
                # noticed drop): this dial is a reconnect.  The chunk is
                # already in the retained buffer, so the dial's resume
                # replays it along with the rest of the unseen suffix —
                # pipelining it again here would ingest it twice
                # server-side.
                self.reconnects += 1
                await self._dial()
                return _concat(session._take_pending())
            try:
                await self._pipeline(session,
                                     _split(array, self._push_items))
            except _CONNECTION_ERRORS:
                # The transport died with pieces outstanding.  The
                # retained buffer already covers every item of this
                # feed, so reconnect + resume replays them; novel
                # outputs (including any received before the drop) are
                # already in the pending buffer.
                await self._reconnect()
            return _concat(session._take_pending())

    async def _finish(self, session: AsyncRemoteSession) -> np.ndarray:
        async with self._lock:
            if self._channel is None:
                await self._dial()
            while True:
                try:
                    await self._send({"type": "flush",
                                      "stream_id": session.stream_id,
                                      "delivered": session._delivered})
                    frame = await self._expect("result", op="flush",
                                               stream_id=session.stream_id)
                    session._accept_output(frame)
                    break
                except _CONNECTION_ERRORS:
                    await self._reconnect()
            if "detection" in frame:
                session._detection = frame["detection"]
            session._finished = True
            self._sessions.pop(session.stream_id, None)
            self._credits.pop(session.stream_id, None)
            return _concat(session._take_pending())

    # -- factories -------------------------------------------------------
    async def protect(self, stream_id: str, watermark, key, *,
                      params=None, encoding: str = "multihash",
                      encoding_options: "dict | None" = None,
                      require_labels: bool = True) -> AsyncRemoteSession:
        """Open a remote embedding stream (mirrors ``StreamHub.protect``)."""
        fields = {"watermark": str(watermark),
                  "encoding": encoding,
                  "require_labels": require_labels}
        if params is not None:
            fields["params"] = params_to_dict(params)
        if encoding_options:
            fields["encoding_options"] = dict(encoding_options)
        return await self._register(stream_id, "protection", key, fields)

    async def detect(self, stream_id: str, wm_length: int, key, *,
                     params=None, encoding: str = "multihash",
                     encoding_options: "dict | None" = None,
                     transform_degree: float = 1.0,
                     require_labels: bool = True) -> AsyncRemoteSession:
        """Open a remote detection stream (mirrors ``StreamHub.detect``)."""
        fields = {"wm_length": int(wm_length),
                  "encoding": encoding,
                  "transform_degree": float(transform_degree),
                  "require_labels": require_labels}
        if params is not None:
            fields["params"] = params_to_dict(params)
        if encoding_options:
            fields["encoding_options"] = dict(encoding_options)
        return await self._register(stream_id, "detection", key, fields)


# ----------------------------------------------------------------------
# synchronous wrapper
# ----------------------------------------------------------------------
class RemoteSession:
    """Synchronous view of an :class:`AsyncRemoteSession`.

    Mirrors the :class:`~repro.pipeline.ProtectionSession` /
    :class:`~repro.pipeline.DetectionSession` API (``feed`` /
    ``finish`` / ``result`` / ``items_ingested``), so in-process code
    ports to the network by swapping constructors.
    """

    def __init__(self, client: "RemoteClient",
                 session: AsyncRemoteSession) -> None:
        self._client = client
        self._session = session

    @property
    def stream_id(self) -> str:
        """The stream's id on the server."""
        return self._session.stream_id

    @property
    def kind(self) -> str:
        """``"protection"`` or ``"detection"``."""
        return self._session.kind

    @property
    def items_ingested(self) -> int:
        """Items fed into this session so far."""
        return self._session.items_ingested

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has completed."""
        return self._session.finished

    def feed(self, chunk) -> np.ndarray:
        """Push one chunk; return the (novel) output items released."""
        return self._client._call(self._session.feed(chunk))

    def finish(self) -> np.ndarray:
        """End the stream; return the remaining output items."""
        return self._client._call(self._session.finish())

    def result(self) -> DetectionResult:
        """The reconstructed detection evidence (after :meth:`finish`)."""
        return self._session.result()


class RemoteClient:
    """Synchronous client: an :class:`AsyncRemoteClient` on a thread.

    Owns a private event loop on a daemon thread and proxies every
    operation onto it, so scripts, the CLI and tests drive remote
    sessions without touching asyncio.  Accepts the same constructor
    arguments as :class:`AsyncRemoteClient` and works as a context
    manager.
    """

    def __init__(self, host: str, port: int, **options) -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        name="repro-remote-client",
                                        daemon=True)
        self._thread.start()
        self._async = AsyncRemoteClient(host, port, **options)
        try:
            self._call(self._async.connect())
        except BaseException:
            # A failed connect must not leak the loop thread (callers
            # retrying construction would accumulate one per attempt).
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            if self._thread.is_alive():  # pragma: no cover - wedged loop
                # The connect error is already propagating; closing a
                # still-running loop would mask it, so just shout.
                logger.error(
                    "client loop thread %s did not stop within 5s; "
                    "a background thread is leaking",
                    self._thread.name)
            else:
                self._loop.close()
            raise

    def _call(self, coroutine):
        """Run one coroutine on the client loop and wait for it."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop).result()

    def __enter__(self) -> "RemoteClient":
        """Already connected; context entry is a no-op."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the connection and stop the private loop."""
        self.close()

    @property
    def reconnects(self) -> int:
        """How many times the transport was re-established."""
        return self._async.reconnects

    def status(self) -> dict:
        """Fetch the server's observability snapshot (STATUS frame)."""
        return self._call(self._async.status())

    def simulate_crash(self) -> None:
        """Chaos hook: drop the transport with no goodbye.

        Runs on the client loop (and waits for it), so callers can
        crash deterministically between two feeds.
        """
        async def crash() -> None:
            self._async.simulate_crash()
        self._call(crash())

    def protect(self, stream_id: str, watermark, key,
                **options) -> RemoteSession:
        """Open a remote embedding stream (see ``AsyncRemoteClient``)."""
        return RemoteSession(self, self._call(
            self._async.protect(stream_id, watermark, key, **options)))

    def detect(self, stream_id: str, wm_length: int, key,
               **options) -> RemoteSession:
        """Open a remote detection stream (see ``AsyncRemoteClient``)."""
        return RemoteSession(self, self._call(
            self._async.detect(stream_id, wm_length, key, **options)))

    def close(self) -> None:
        """Say goodbye, close the transport and stop the loop thread.

        Raises :class:`~repro.errors.ReproError` if the loop thread
        fails to stop within the join timeout — a silent return here
        would leak a live thread (and its event loop) while looking
        exactly like a clean shutdown.
        """
        if self._loop.is_closed():
            return
        try:
            self._call(self._async.close())
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5)
            if self._thread.is_alive():  # pragma: no cover - wedged loop
                logger.error(
                    "client loop thread %s did not stop within 5s",
                    self._thread.name)
                raise ReproError(
                    "client loop thread did not stop within 5s; a "
                    "background thread is still running (not closed)")
            self._loop.close()


def _split(array: np.ndarray, size: int) -> "list[np.ndarray]":
    """Cut one array into pieces of at most ``size`` items."""
    if array.size == 0:
        return []
    return [array[start:start + size]
            for start in range(0, array.size, size)]


def _concat(pieces: "list[np.ndarray]") -> np.ndarray:
    """Concatenate released pieces (empty-safe)."""
    pieces = [piece for piece in pieces if piece.size]
    if not pieces:
        return _EMPTY
    return np.concatenate(pieces)

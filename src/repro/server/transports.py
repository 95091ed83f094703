"""Transports: message framing under the frame codec.

The serving engine (:class:`repro.server.service.StreamService`) and
the client SDK (:mod:`repro.server.client`) are **transport-blind**:
they exchange whole frame bodies (bytes produced/consumed by
:class:`repro.server.protocol.BinaryFrameCodec`) through the small
interface in this module — the Gabriel shape of one engine behind
``websocket_server``/``zeromq_server`` front-ends.
:func:`build_transport` resolves a name through :data:`TRANSPORTS`,
which lists the two transports:

``tcp``
    A 4-byte big-endian length prefix followed by the frame body over
    a plain asyncio TCP stream.
``websocket``
    RFC 6455 over asyncio streams (no third-party dependency): an HTTP
    Upgrade handshake, then each frame body travels as one binary
    WebSocket message (client-to-server messages masked, as the RFC
    requires).  Lets browsers and WS-only infrastructure reach a
    ``repro serve`` endpoint.

Both transports enforce :data:`repro.server.protocol.MAX_FRAME_BYTES`
on the declared size *before* buffering a message body: a hostile
length yields a clean :class:`repro.errors.ProtocolError`, never an
OOM.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import select
import struct

import numpy as np

from repro.errors import ProtocolError
from repro.registry import entry
from repro.server.protocol import MAX_FRAME_BYTES

_LENGTH_PREFIX = struct.Struct(">I")

#: ``poll(2)`` events that mean the peer hung up.  ``POLLRDHUP`` (Linux)
#: reports a FIN even while bytes sent before it wait unread; without
#: it, only a reset shows before the reader reaches the EOF.
_HUNG_UP = getattr(select, "POLLRDHUP", 0) | select.POLLHUP | select.POLLERR


class TransportConnection:
    """One bidirectional message channel between a client and a server.

    Messages are whole frame bodies; the transport owns delimiting.
    ``read_message`` returns ``None`` on a clean end-of-stream and
    raises :class:`ProtocolError` when the peer dies mid-message.
    """

    #: ``"host:port"`` of the remote peer, for error messages.
    peer: str = "peer"

    @property
    def peer_gone(self) -> bool:
        """Whether this channel has seen the peer hang up (EOF or reset).

        Answers without reading: a server busy between the slices of
        one large push checks it to stop work nobody can receive.
        """
        raise NotImplementedError

    async def read_message(self) -> "bytes | None":
        """Read one complete message body; ``None`` on clean EOF."""
        raise NotImplementedError

    async def write_message(self, body: bytes) -> None:
        """Send one message body, honouring transport backpressure."""
        raise NotImplementedError

    async def write_messages(self, bodies: "list[bytes]") -> None:
        """Send several message bodies, coalescing where the transport
        can (one syscall and one peer wakeup instead of one each)."""
        for body in bodies:
            await self.write_message(body)

    async def close(self) -> None:
        """Close the connection in an orderly way (idempotent)."""
        raise NotImplementedError

    def abort(self) -> None:
        """Drop the connection immediately (no goodbye, no flush)."""
        raise NotImplementedError


class Listener:
    """A bound server endpoint accepting transport connections."""

    def __init__(self, server: "asyncio.base_events.Server",
                 address: "tuple[str, int]") -> None:
        self._server = server
        self.address = address

    def close(self) -> None:
        """Stop accepting new connections (existing ones live on)."""
        self._server.close()

    async def wait_closed(self) -> None:
        """Wait until the listening socket is fully closed."""
        await self._server.wait_closed()


class Transport:
    """One named transport: a listener factory plus a dialer.

    Subclasses are listed in :data:`TRANSPORTS` and constructed with
    no arguments (:func:`build_transport`).
    """

    async def serve(self, host: str, port: int, handler) -> Listener:
        """Bind and accept; ``handler(connection)`` runs per connection."""
        raise NotImplementedError

    async def connect(self, host: str, port: int) -> TransportConnection:
        """Dial a server; returns the connected message channel."""
        raise NotImplementedError


def _peer_name(writer: asyncio.StreamWriter) -> str:
    peer = writer.get_extra_info("peername")
    return f"{peer[0]}:{peer[1]}" if peer else "peer"


class _StreamConnection(TransportConnection):
    """Shared asyncio-stream plumbing for both transports."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self.peer = _peer_name(writer)

    @property
    def peer_gone(self) -> bool:
        """A reset closes the transport; an EOF counts on arrival.

        Asks the socket, not the reader: a client that crashes mid-push
        has sent its next frames already, and its EOF waits behind them
        in the reader's buffer, or in the kernel's once the reader has
        stopped reading at its limit.  None of them can get a result
        (the client's resume replays them), so the server stops now.
        """
        transport = self._writer.transport
        if transport.is_closing() or self._reader.at_eof():
            return True
        poller = select.poll()
        poller.register(transport.get_extra_info("socket"), _HUNG_UP)
        return bool(poller.poll(0))

    async def close(self) -> None:
        """Close the underlying stream, swallowing teardown races."""
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def abort(self) -> None:
        """Abort the socket immediately (simulates a crash/SIGKILL)."""
        self._writer.transport.abort()


# ----------------------------------------------------------------------
# TCP: 4-byte length prefix + body (the original wire framing)
# ----------------------------------------------------------------------
class TcpTransport(Transport):
    """Length-prefixed frame bodies over a plain asyncio TCP stream."""

    async def serve(self, host: str, port: int, handler) -> Listener:
        """Start an asyncio TCP server wrapping connections for
        ``handler``."""
        async def accept(reader, writer):
            await handler(_TcpConnection(reader, writer))

        server = await asyncio.start_server(accept, host, port)
        bound = server.sockets[0].getsockname()
        return Listener(server, (bound[0], bound[1]))

    async def connect(self, host: str, port: int) -> TransportConnection:
        """Dial ``host:port`` and return the framed channel."""
        reader, writer = await asyncio.open_connection(host, port)
        return _TcpConnection(reader, writer)


class _TcpConnection(_StreamConnection):
    """TCP message channel: ``uint32-be length || body`` per message."""

    async def read_message(self) -> "bytes | None":
        try:
            header = await self._reader.readexactly(_LENGTH_PREFIX.size)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise ProtocolError(
                "connection closed mid-frame (inside the length prefix)"
            ) from exc
        (length,) = _LENGTH_PREFIX.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame length prefix {length} exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame limit (corrupt stream?)"
            )
        try:
            return await self._reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed mid-frame ({len(exc.partial)} of "
                f"{length} body bytes)"
            ) from exc

    async def write_message(self, body: bytes) -> None:
        self._writer.write(_LENGTH_PREFIX.pack(len(body)) + body)
        await self._writer.drain()

    async def write_messages(self, bodies: "list[bytes]") -> None:
        """Write all frames into one kernel send: the receiving loop
        wakes once and drains them from its buffer without further
        round trips (the RESULT+CREDIT pair rides this)."""
        self._writer.write(b"".join(
            _LENGTH_PREFIX.pack(len(body)) + body for body in bodies))
        await self._writer.drain()


# ----------------------------------------------------------------------
# WebSocket: RFC 6455 on asyncio streams, stdlib only
# ----------------------------------------------------------------------
_WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"
_WS_MAX_HEADER = 16 * 1024  # upgrade request/response size cap

_OP_CONT, _OP_TEXT, _OP_BINARY = 0x0, 0x1, 0x2
_OP_CLOSE, _OP_PING, _OP_PONG = 0x8, 0x9, 0xA


def websocket_accept(key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's nonce key."""
    digest = hashlib.sha1(key.strip().encode("ascii") + _WS_GUID)
    return base64.b64encode(digest.digest()).decode("ascii")


def _apply_mask(data: bytes, mask: bytes) -> bytes:
    """XOR ``data`` with the repeating 4-byte mask (RFC 6455 §5.3).

    Vectorized with numpy so masking stays off the per-item cost path
    even for large payloads.
    """
    if not data:
        return b""
    array = np.frombuffer(data, dtype=np.uint8)
    pattern = np.resize(np.frombuffer(mask, dtype=np.uint8), array.size)
    return np.bitwise_xor(array, pattern).tobytes()


async def _read_headers(reader: asyncio.StreamReader,
                        what: str) -> "tuple[str, dict[str, str]]":
    """Read one HTTP request/response head; returns (start line, headers).

    Reads line by line with ``readuntil`` so nothing past the blank
    line is consumed — bytes the peer pipelines straight after the
    handshake (its first frame) stay buffered for the frame reader.
    """
    raw = bytearray()
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed during the WebSocket {what}") from exc
        except asyncio.LimitOverrunError as exc:
            raise ProtocolError(
                f"WebSocket {what} line exceeds the stream limit") from exc
        raw += line
        if len(raw) > _WS_MAX_HEADER:
            raise ProtocolError(
                f"WebSocket {what} exceeds {_WS_MAX_HEADER} bytes")
        if line == b"\r\n" and len(raw) > 2:
            break
    head = bytes(raw[:-4])
    try:
        lines = head.decode("latin-1").split("\r\n")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ProtocolError(f"undecodable WebSocket {what}") from exc
    headers: "dict[str, str]" = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return lines[0], headers


class _WebSocketConnection(_StreamConnection):
    """One upgraded WebSocket channel carrying binary frame bodies.

    ``client_side`` controls the RFC's masking asymmetry: clients mask
    every frame they send and require unmasked server frames; servers
    require masked client frames and send unmasked.
    """

    def __init__(self, reader, writer, client_side: bool) -> None:
        super().__init__(reader, writer)
        self._client_side = client_side
        self._close_sent = False

    # -- frame plumbing ------------------------------------------------
    async def _read_ws_frame(self) -> "tuple[int, bool, bytes] | None":
        """One raw frame: ``(opcode, fin, payload)``; None on clean EOF."""
        try:
            first = await self._reader.readexactly(2)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise ProtocolError(
                "connection closed mid-WebSocket-frame (header)") from exc
        fin = bool(first[0] & 0x80)
        if first[0] & 0x70:
            raise ProtocolError(
                "WebSocket reserved bits set (no extension negotiated)")
        opcode = first[0] & 0x0F
        masked = bool(first[1] & 0x80)
        length = first[1] & 0x7F
        try:
            if length == 126:
                (length,) = struct.unpack(
                    ">H", await self._reader.readexactly(2))
            elif length == 127:
                (length,) = struct.unpack(
                    ">Q", await self._reader.readexactly(8))
            # The declared length is capped BEFORE the payload is
            # buffered: a hostile 2**60 length dies here, not in malloc.
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"WebSocket frame declares {length} bytes, over the "
                    f"{MAX_FRAME_BYTES}-byte limit (hostile length?)"
                )
            if masked == self._client_side:
                raise ProtocolError(
                    "WebSocket masking violation: client frames must be "
                    "masked, server frames must not be"
                )
            mask = await self._reader.readexactly(4) if masked else b""
            payload = await self._reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(
                f"connection closed mid-WebSocket-frame "
                f"({len(exc.partial)} bytes read)"
            ) from exc
        if masked:
            payload = _apply_mask(payload, mask)
        return opcode, fin, payload

    def _build_ws_frame(self, opcode: int, payload: bytes) -> bytes:
        """One complete outgoing frame (masked when on the client side)."""
        header = bytearray([0x80 | opcode])
        mask_bit = 0x80 if self._client_side else 0
        length = len(payload)
        if length < 126:
            header.append(mask_bit | length)
        elif length < 1 << 16:
            header.append(mask_bit | 126)
            header += struct.pack(">H", length)
        else:
            header.append(mask_bit | 127)
            header += struct.pack(">Q", length)
        if self._client_side:
            mask = os.urandom(4)
            header += mask
            payload = _apply_mask(payload, mask)
        return bytes(header) + payload

    async def _write_ws_frame(self, opcode: int, payload: bytes) -> None:
        self._writer.write(self._build_ws_frame(opcode, payload))
        await self._writer.drain()

    # -- the message interface -----------------------------------------
    async def read_message(self) -> "bytes | None":
        """Read one binary message (reassembling fragments); answer
        pings; ``None`` once the peer sends CLOSE or the stream ends."""
        parts: "list[bytes]" = []
        buffered = 0
        while True:
            frame = await self._read_ws_frame()
            if frame is None:
                return None
            opcode, fin, payload = frame
            if opcode == _OP_PING:
                await self._write_ws_frame(_OP_PONG, payload)
                continue
            if opcode == _OP_PONG:
                continue
            if opcode == _OP_CLOSE:
                if not self._close_sent:
                    self._close_sent = True
                    try:
                        await self._write_ws_frame(_OP_CLOSE, b"")
                    except (ConnectionError, OSError):
                        pass
                return None
            if opcode == _OP_TEXT:
                raise ProtocolError(
                    "WebSocket text message on a binary-frame protocol")
            if opcode == _OP_BINARY:
                if parts:
                    raise ProtocolError(
                        "new WebSocket message started inside a "
                        "fragmented one")
            elif opcode == _OP_CONT:
                if not parts:
                    raise ProtocolError(
                        "WebSocket continuation frame without a message")
            else:
                raise ProtocolError(
                    f"unsupported WebSocket opcode 0x{opcode:x}")
            buffered += len(payload)
            if buffered > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"fragmented WebSocket message exceeds the "
                    f"{MAX_FRAME_BYTES}-byte limit"
                )
            parts.append(payload)
            if fin:
                return b"".join(parts)

    async def write_message(self, body: bytes) -> None:
        """Send one frame body as a single binary WebSocket message."""
        await self._write_ws_frame(_OP_BINARY, bytes(body))

    async def write_messages(self, bodies: "list[bytes]") -> None:
        """Send several binary messages in one kernel write (one peer
        wakeup for the batch)."""
        self._writer.write(b"".join(
            self._build_ws_frame(_OP_BINARY, bytes(body))
            for body in bodies))
        await self._writer.drain()

    async def close(self) -> None:
        """Send a CLOSE frame (best effort) and close the stream."""
        if not self._close_sent:
            self._close_sent = True
            try:
                await self._write_ws_frame(_OP_CLOSE, b"")
            except (ConnectionError, OSError):
                pass
        await super().close()


class WebSocketTransport(Transport):
    """Frame bodies as binary WebSocket messages (RFC 6455)."""

    async def serve(self, host: str, port: int, handler) -> Listener:
        """Start a WebSocket server: HTTP upgrade, then binary frames."""
        async def accept(reader, writer):
            try:
                await self._server_handshake(reader, writer)
            except (ProtocolError, ConnectionError, OSError):
                writer.close()
                return
            await handler(_WebSocketConnection(reader, writer,
                                               client_side=False))

        server = await asyncio.start_server(accept, host, port)
        bound = server.sockets[0].getsockname()
        return Listener(server, (bound[0], bound[1]))

    @staticmethod
    async def _server_handshake(reader, writer) -> None:
        """Validate the HTTP Upgrade request and send 101 (RFC §4.2)."""
        start, headers = await _read_headers(reader, "upgrade request")
        key = headers.get("sec-websocket-key")
        if (not start.startswith("GET ")
                or "websocket" not in headers.get("upgrade", "").lower()
                or not key):
            writer.write(b"HTTP/1.1 400 Bad Request\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            raise ProtocolError("not a WebSocket upgrade request")
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"Upgrade: websocket\r\n"
            b"Connection: Upgrade\r\n"
            b"Sec-WebSocket-Accept: "
            + websocket_accept(key).encode("ascii") + b"\r\n\r\n")
        await writer.drain()

    async def connect(self, host: str, port: int) -> TransportConnection:
        """Dial and upgrade; returns the WebSocket message channel."""
        reader, writer = await asyncio.open_connection(host, port)
        nonce = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write(
            f"GET /stream HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Upgrade: websocket\r\n"
            f"Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {nonce}\r\n"
            f"Sec-WebSocket-Version: 13\r\n\r\n".encode("ascii"))
        await writer.drain()
        try:
            start, headers = await _read_headers(reader, "upgrade response")
            if " 101 " not in start + " ":
                raise ProtocolError(
                    f"server refused the WebSocket upgrade: {start!r}")
            accept = headers.get("sec-websocket-accept", "")
            if accept != websocket_accept(nonce):
                raise ProtocolError(
                    "server sent a bad Sec-WebSocket-Accept value")
        except ProtocolError:
            writer.close()
            raise
        return _WebSocketConnection(reader, writer, client_side=True)


#: ``name -> (transport class, description)``, in ``repro list`` order.
TRANSPORTS = {
    "tcp": (TcpTransport,
            "length-prefixed frames over plain TCP (the original wire "
            "framing)"),
    "websocket": (WebSocketTransport,
                  "RFC 6455 WebSocket (binary messages, stdlib asyncio "
                  "implementation)"),
}


def build_transport(name: str) -> Transport:
    """Construct the transport :data:`TRANSPORTS` lists under ``name``."""
    return entry("transport", TRANSPORTS, name)()

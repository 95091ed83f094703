"""Transport layer: TCP framing, RFC 6455 plumbing, hostile inputs.

Mirrors the protocol fuzz suites one layer down: anything a hostile or
broken peer can put on the socket — oversized declared lengths,
reserved bits, masking violations, truncated frames, junk upgrade
requests — must surface as a clean :class:`ProtocolError` (or a clean
``None`` EOF), never as a raw ``struct.error`` or an unbounded buffer.
"""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError, ReproError
from repro.server.protocol import (
    CODEC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
)
from repro.server.transports import (
    TcpTransport,
    WebSocketTransport,
    _apply_mask,
    _TcpConnection,
    build_transport,
    websocket_accept,
)


def run(coro):
    """Drive one async test scenario with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, 15))


def closing(handler):
    """A raw ``start_server`` handler that closes its socket however it
    ends, so no scripted peer outlives its test."""
    async def wrapped(reader, writer):
        try:
            await handler(reader, writer)
        finally:
            writer.close()
    return wrapped


def ws_frame(opcode: int, payload: bytes = b"", *, fin: bool = True,
             rsv: int = 0, mask: "bytes | None" = None) -> bytes:
    """Hand-rolled RFC 6455 frame so tests control every bit."""
    first = (0x80 if fin else 0) | rsv | opcode
    header = bytearray([first])
    length = len(payload)
    mask_bit = 0x80 if mask is not None else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if mask is not None:
        header += mask
        payload = _apply_mask(payload, mask)
    return bytes(header) + payload


class _NoWriter:
    """Write side of an in-memory channel: reads only, no peer name."""

    def get_extra_info(self, name):
        return None


def tcp_channel(data: bytes = b"", *, eof: bool = True):
    """A TCP message channel reading ``data`` from memory.

    Returns ``(channel, reader)``; feed more bytes through ``reader``.
    Must be called inside a running event loop.
    """
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return _TcpConnection(reader, _NoWriter()), reader


class TestWebSocketAccept:
    def test_rfc6455_known_vector(self):
        """The worked example from RFC 6455 section 1.3."""
        assert websocket_accept("dGhlIHNhbXBsZSBub25jZQ==") \
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    def test_whitespace_tolerated(self):
        assert websocket_accept(" dGhlIHNhbXBsZSBub25jZQ== ") \
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="


class TestApplyMask:
    def test_matches_bytewise_xor(self):
        data, mask = bytes(range(11)), b"\x01\x02\x03\x04"
        expected = bytes(b ^ mask[i % 4] for i, b in enumerate(data))
        assert _apply_mask(data, mask) == expected

    def test_involution(self):
        """Masking twice with the same key is the identity (XOR)."""
        data, mask = b"framed payload bytes", b"\xaa\xbb\xcc\xdd"
        assert _apply_mask(_apply_mask(data, mask), mask) == data

    def test_empty(self):
        assert _apply_mask(b"", b"\x01\x02\x03\x04") == b""

    def test_large_payload(self):
        data = np.arange(10000, dtype=np.uint8).tobytes()
        mask = b"\x10\x20\x30\x40"
        assert _apply_mask(_apply_mask(data, mask), mask) == data


class TestBuildTransport:
    def test_known_names(self):
        assert isinstance(build_transport("tcp"), TcpTransport)
        assert isinstance(build_transport("websocket"), WebSocketTransport)

    def test_unknown_name_raises_clean(self):
        with pytest.raises(ReproError):
            build_transport("carrier-pigeon")


class _EchoServer:
    """A served transport whose handler echoes every message back."""

    def __init__(self, transport, **serve_options):
        self.transport = transport
        self.serve_options = serve_options
        self.errors: "list[Exception]" = []

    async def __aenter__(self):
        async def echo(connection):
            try:
                while True:
                    body = await connection.read_message()
                    if body is None:
                        break
                    await connection.write_message(body)
            except ProtocolError as exc:
                self.errors.append(exc)
            finally:
                await connection.close()

        self.listener = await self.transport.serve(
            "127.0.0.1", 0, echo, **self.serve_options)
        return self

    async def __aexit__(self, *exc_info):
        self.listener.close()
        await self.listener.wait_closed()

    @property
    def address(self):
        return self.listener.address


class TestTcpChannel:
    @pytest.mark.parametrize("payload", [b"", b"x", b"A" * 70000],
                             ids=["empty", "tiny", "large"])
    def test_round_trip(self, payload):
        async def scenario():
            transport = TcpTransport()
            async with _EchoServer(transport) as server:
                host, port = server.address
                connection = await transport.connect(host, port)
                await connection.write_message(payload)
                echoed = await connection.read_message()
                await connection.close()
                return echoed

        assert run(scenario()) == payload

    def test_write_messages_batches_in_order(self):
        bodies = [b"one", b"two", b"three"]

        async def scenario():
            transport = TcpTransport()
            async with _EchoServer(transport) as server:
                host, port = server.address
                connection = await transport.connect(host, port)
                await connection.write_messages(bodies)
                echoed = [await connection.read_message()
                          for _ in bodies]
                await connection.close()
                return echoed

        assert run(scenario()) == bodies

    def test_clean_eof_is_none(self):
        async def scenario():
            async def hang_up(reader, writer):
                writer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            connection = await TcpTransport().connect(host, port)
            try:
                return await connection.read_message()
            finally:
                await connection.close()
                server.close()
                await server.wait_closed()

        assert run(scenario()) is None

    def test_hostile_length_prefix_rejected_before_buffering(self):
        async def scenario():
            async def hostile(reader, writer):
                writer.write(struct.pack(">I", 2 ** 31) + b"xx")
                await writer.drain()

            server = await asyncio.start_server(closing(hostile),
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            connection = await TcpTransport().connect(host, port)
            try:
                with pytest.raises(ProtocolError, match="length prefix"):
                    await connection.read_message()
            finally:
                await connection.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_eof_mid_frame_rejected(self):
        async def scenario():
            async def truncating(reader, writer):
                writer.write(struct.pack(">I", 100) + b"only-some")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(truncating,
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            connection = await TcpTransport().connect(host, port)
            try:
                with pytest.raises(ProtocolError, match="mid-frame"):
                    await connection.read_message()
            finally:
                await connection.close()
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_split_at_any_byte_boundary_reassembles(self):
        """Two frames cut at every possible byte boundary still arrive
        as the same two messages."""
        bodies = [CODEC.encode({"type": "hello",
                                "version": PROTOCOL_VERSION}),
                  CODEC.encode({"type": "push", "stream_id": "s1",
                                "seq": 0, "values": np.array([0.25])})]
        wire = b"".join(struct.pack(">I", len(body)) + body
                        for body in bodies)

        async def scenario(cut):
            channel, reader = tcp_channel(wire[:cut], eof=False)
            first = asyncio.ensure_future(channel.read_message())
            await asyncio.sleep(0)
            reader.feed_data(wire[cut:])
            reader.feed_eof()
            return [await first, await channel.read_message(),
                    await channel.read_message()]

        for cut in range(len(wire) + 1):
            assert run(scenario(cut)) == bodies + [None]

    @given(st.binary(min_size=1, max_size=200))
    def test_garbage_bytes_never_crash(self, data):
        """Fuzz: any byte stream yields messages that decode or raise
        ProtocolError, then a clean end — nothing rawer."""
        async def scenario():
            channel, _ = tcp_channel(data)
            while (body := await channel.read_message()) is not None:
                CODEC.decode(body)

        try:
            run(scenario())
        except ProtocolError:
            pass


class TestHardFrameCap:
    """:data:`MAX_FRAME_BYTES` is the one frame-size cap: a hostile
    length prefix dies before any body byte is buffered."""

    def test_over_cap_prefix_rejected_before_buffering(self):
        """A prefix one byte over the cap is rejected on arrival, while
        the stream stays open and no body byte has come."""
        async def scenario():
            channel, _ = tcp_channel(struct.pack(">I", MAX_FRAME_BYTES + 1),
                                     eof=False)
            await channel.read_message()

        with pytest.raises(ProtocolError, match="exceeds"):
            run(scenario())

    @given(st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1))
    def test_any_over_cap_prefix_rejected(self, length):
        """Fuzz: every over-cap declared length dies on arrival."""
        async def scenario():
            channel, _ = tcp_channel(struct.pack(">I", length) + b"x" * 16)
            await channel.read_message()

        with pytest.raises(ProtocolError, match="exceeds"):
            run(scenario())

    def test_in_range_prefix_still_buffers(self):
        """An in-range prefix waits for its body."""
        async def scenario():
            channel, reader = tcp_channel(struct.pack(">I", 64) + b"{",
                                          eof=False)
            read = asyncio.ensure_future(channel.read_message())
            await asyncio.sleep(0.01)
            assert not read.done()
            reader.feed_data(b"}" * 63)
            return await read

        assert run(scenario()) == b"{" + b"}" * 63


class TestPeerGone:
    """``peer_gone`` answers without a read: a server busy with one
    push learns that its client hung up, even while messages the
    client sent before hanging up wait unread."""

    @pytest.mark.parametrize("transport", [TcpTransport,
                                           WebSocketTransport])
    @pytest.mark.parametrize("hang_up", ["abort", "close"])
    @pytest.mark.parametrize("unread", [[b"unread"], [bytes(100_000)] * 2],
                             ids=["buffered", "reader-paused"])
    def test_server_channel_sees_the_hang_up(self, transport, hang_up,
                                             unread):
        """200 kB unread are past the stream reader's limit, so it
        stops reading the socket: the EOF then waits in the kernel."""
        async def scenario():
            loop = asyncio.get_running_loop()
            alive, seen = loop.create_future(), loop.create_future()

            async def serve(connection):
                await connection.read_message()
                alive.set_result(connection.peer_gone)
                deadline = loop.time() + 5
                while not connection.peer_gone and loop.time() < deadline:
                    await asyncio.sleep(0.005)
                gone = connection.peer_gone
                left = [await connection.read_message() for _ in unread]
                seen.set_result((gone, left, await connection.read_message()))
                await connection.close()

            listener = await transport().serve("127.0.0.1", 0, serve)
            client = await transport().connect(*listener.address)
            await client.write_messages([b"hello", *unread])
            before = await alive
            if hang_up == "abort":
                # An abort drops what the kernel has not taken yet.
                while client._writer.transport.get_write_buffer_size():
                    await asyncio.sleep(0.001)
                client.abort()
            else:
                await client.close()
            after = await seen
            listener.close()
            await listener.wait_closed()
            return before, after

        assert run(scenario()) == (False, (True, unread, None))


async def _ws_scripted_server(*payloads: bytes):
    """A raw TCP server that completes the upgrade then replays
    ``payloads`` verbatim — hostile-server scenarios for the client."""
    async def serve(reader, writer):
        await WebSocketTransport._server_handshake(reader, writer)
        for payload in payloads:
            writer.write(payload)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


async def _ws_client_reads(server_bytes):
    """Connect a real WebSocket client to a scripted server; return
    what read_message yields (or raise what it raises)."""
    server, (host, port) = await _ws_scripted_server(*server_bytes)
    connection = await WebSocketTransport().connect(host, port)
    try:
        return await connection.read_message()
    finally:
        connection.abort()
        server.close()
        await server.wait_closed()


class TestWebSocketChannel:
    @pytest.mark.parametrize("payload", [b"", b"x", b"B" * 70000],
                             ids=["empty", "tiny", "large"])
    def test_round_trip(self, payload):
        async def scenario():
            transport = WebSocketTransport()
            async with _EchoServer(transport) as server:
                host, port = server.address
                connection = await transport.connect(host, port)
                await connection.write_message(payload)
                echoed = await connection.read_message()
                await connection.close()
                return echoed

        assert run(scenario()) == payload

    def test_write_messages_batches_in_order(self):
        bodies = [b"alpha", b"beta", b"gamma"]

        async def scenario():
            transport = WebSocketTransport()
            async with _EchoServer(transport) as server:
                host, port = server.address
                connection = await transport.connect(host, port)
                await connection.write_messages(bodies)
                echoed = [await connection.read_message()
                          for _ in bodies]
                await connection.close()
                return echoed

        assert run(scenario()) == bodies

    def test_fragmented_message_reassembled(self):
        frames = [ws_frame(0x2, b"spread ", fin=False),
                  ws_frame(0x0, b"across ", fin=False),
                  ws_frame(0x0, b"frames", fin=True)]
        assert run(_ws_client_reads(frames)) == b"spread across frames"

    def test_ping_answered_between_fragments(self):
        frames = [ws_frame(0x2, b"sur", fin=False),
                  ws_frame(0x9, b"ping!"),
                  ws_frame(0x0, b"vives", fin=True)]
        assert run(_ws_client_reads(frames)) == b"survives"

    def test_close_yields_none(self):
        assert run(_ws_client_reads([ws_frame(0x8)])) is None

    def test_clean_eof_yields_none(self):
        assert run(_ws_client_reads([])) is None

    def test_reserved_bits_rejected(self):
        with pytest.raises(ProtocolError, match="reserved bits"):
            run(_ws_client_reads([ws_frame(0x2, b"x", rsv=0x40)]))

    def test_text_message_rejected(self):
        with pytest.raises(ProtocolError, match="text"):
            run(_ws_client_reads([ws_frame(0x1, b"hi")]))

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ProtocolError, match="opcode"):
            run(_ws_client_reads([ws_frame(0x3, b"x")]))

    def test_continuation_without_message_rejected(self):
        with pytest.raises(ProtocolError, match="continuation"):
            run(_ws_client_reads([ws_frame(0x0, b"x")]))

    def test_new_message_inside_fragmented_one_rejected(self):
        frames = [ws_frame(0x2, b"a", fin=False), ws_frame(0x2, b"b")]
        with pytest.raises(ProtocolError, match="inside"):
            run(_ws_client_reads(frames))

    def test_masked_server_frame_rejected(self):
        """Masking asymmetry: server frames must arrive unmasked."""
        frames = [ws_frame(0x2, b"x", mask=b"\x01\x02\x03\x04")]
        with pytest.raises(ProtocolError, match="masking"):
            run(_ws_client_reads(frames))

    def test_hostile_declared_length_rejected_before_buffering(self):
        """A 2**60-byte declared length dies on the header, without the
        payload ever being read or buffered."""
        hostile = bytes([0x82, 127]) + struct.pack(">Q", 1 << 60)
        with pytest.raises(ProtocolError, match="hostile length"):
            run(_ws_client_reads([hostile]))

    def test_oversized_fragment_total_rejected(self):
        """Fragments individually under the cap must not buffer past
        it: two halves that total one byte over 8 MiB fail."""
        half = MAX_FRAME_BYTES // 2
        frames = [ws_frame(0x2, b"a" * half, fin=False),
                  ws_frame(0x0, b"b" * (half + 1), fin=True)]
        with pytest.raises(ProtocolError, match="exceeds"):
            run(_ws_client_reads(frames))

    def test_unmasked_client_frame_rejected_by_server(self):
        """The server rejects unmasked client frames (RFC 6455 §5.1)."""
        async def scenario():
            transport = WebSocketTransport()
            async with _EchoServer(transport) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    f"GET / HTTP/1.1\r\nHost: {host}\r\n"
                    f"Upgrade: websocket\r\nConnection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                    f"\r\n".encode())
                await writer.drain()
                await reader.readuntil(b"\r\n\r\n")
                writer.write(ws_frame(0x2, b"unmasked!"))
                await writer.drain()
                # The server hangs up (at most a CLOSE frame first).
                assert await reader.read() in (b"", ws_frame(0x8))
                writer.close()
            return server.errors

        errors = run(scenario())
        assert len(errors) == 1
        assert "masking" in str(errors[0])

    def test_non_upgrade_request_gets_400(self):
        async def scenario():
            transport = WebSocketTransport()
            async with _EchoServer(transport) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"POST /nope HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status = await reader.readline()
                writer.close()
                return status

        assert b"400" in run(scenario())

    def test_client_rejects_refused_upgrade(self):
        async def scenario():
            async def refuse(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b"HTTP/1.1 200 OK\r\n"
                             b"Content-Length: 0\r\n\r\n")
                await writer.drain()

            server = await asyncio.start_server(closing(refuse),
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(ProtocolError, match="refused"):
                    await WebSocketTransport().connect(host, port)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_client_rejects_bad_accept_value(self):
        async def scenario():
            async def lie(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b"HTTP/1.1 101 Switching Protocols\r\n"
                             b"Upgrade: websocket\r\n"
                             b"Sec-WebSocket-Accept: bm9wZQ==\r\n\r\n")
                await writer.drain()

            server = await asyncio.start_server(closing(lie),
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(ProtocolError, match="Accept"):
                    await WebSocketTransport().connect(host, port)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_oversized_upgrade_request_rejected(self):
        """A never-ending header block cannot buffer unboundedly."""
        async def scenario():
            async def flood(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                writer.write(b"HTTP/1.1 101 Switching Protocols\r\n")
                writer.write(b"X-Filler: " + b"a" * (32 * 1024) + b"\r\n")
                await writer.drain()

            server = await asyncio.start_server(closing(flood),
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(ProtocolError, match="exceeds"):
                    await WebSocketTransport().connect(host, port)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

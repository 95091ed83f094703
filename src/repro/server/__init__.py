"""Network serving layer: the :class:`~repro.hub.StreamHub`, served.

This package turns the in-process streaming library into a deployable
service (the SecureStreams / Gabriel middleware shape):

* :mod:`repro.server.protocol` — a versioned frame protocol
  (HELLO/OPEN/PUSH/FLUSH/RESULT/CREDIT/ERROR/STATUS/BYE) with strict
  decode validation and one binary frame codec: struct-packed bodies
  with raw little-endian float64 payloads;
* :mod:`repro.server.transports` — the message transports
  (``tcp`` length-prefixed streams, ``websocket`` RFC 6455), named in
  its ``TRANSPORTS`` table;
* :mod:`repro.server.service` — a transport-blind asyncio server
  multiplexing one :class:`~repro.hub.StreamHub` per tenant namespace
  with credit-based per-stream flow control, periodic checkpointing
  to a directory (or in-memory) :class:`~repro.stores.CheckpointStore`,
  graceful drain on SIGTERM and ``--recover`` restart;
* :mod:`repro.server.client` — sync and async client SDKs whose
  :class:`~repro.server.client.RemoteSession` mirrors the
  :class:`~repro.pipeline.ProtectionSession` /
  :class:`~repro.pipeline.DetectionSession` push/finish API, with
  transparent reconnect-and-resume from server-reported offsets.

Run a server and reach it remotely::

    $ repro serve --port 7707 --store /var/lib/repro/fleet

    from repro.server import RemoteClient
    with RemoteClient("127.0.0.1", 7707) as client:
        session = client.protect("sensor-1", "(c) DataCorp", b"k1")
        for chunk in chunks:
            forward(session.feed(chunk))
        forward(session.finish())
"""

from repro.server.client import (
    AsyncRemoteClient,
    AsyncRemoteSession,
    RemoteClient,
    RemoteSession,
)
from repro.server.protocol import (
    CODEC,
    CODECS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BinaryFrameCodec,
    decode_array,
    encode_array,
)
from repro.server.service import StreamService
from repro.server.transports import (
    TcpTransport,
    Transport,
    TransportConnection,
    WebSocketTransport,
    build_transport,
)

__all__ = [
    "AsyncRemoteClient",
    "AsyncRemoteSession",
    "RemoteClient",
    "RemoteSession",
    "CODEC",
    "CODECS",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "BinaryFrameCodec",
    "decode_array",
    "encode_array",
    "StreamService",
    "TcpTransport",
    "Transport",
    "TransportConnection",
    "WebSocketTransport",
    "build_transport",
]

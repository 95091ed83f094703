"""Wire protocol: binary frames over the transports.

Every message on a ``repro.server`` connection is one **frame**.  How a
frame becomes bytes is the job of the one frame codec,
:class:`BinaryFrameCodec`; how those bytes are delimited on the network
is the job of a transport (:mod:`repro.server.transports`).  A frame
body is a struct-packed header, a small JSON *meta* section for the
cold fields, and the ``values`` payload as **raw little-endian float64
bytes** decoded straight into an array view: no base64, no per-item
Python objects on the hot path.

Logically a frame is a mapping whose ``type`` field names one of nine
frame types:

========  =========  =====================================================
type      direction  meaning
========  =========  =====================================================
hello     both       version/tenant handshake; the server's reply
                     carries the per-stream credit grant
open      c -> s     register (or resume) one keyed stream
push      c -> s     one chunk of stream values; consumes one credit
flush     c -> s     end-of-stream: drain the window, report evidence
result    s -> c     response to open/push/flush (values, offsets, votes)
credit    s -> c     flow control: returns credits for a stream
error     s -> c     a request failed (code + message, stream if known)
status    both       observability: a bare request (c -> s) is answered
                     with a ``payload`` JSON snapshot (s -> c) of the
                     server's metrics registry and per-tenant hub state
bye       both       orderly goodbye; the server's drain notice
========  =========  =====================================================

Numeric payloads round-trip **bit-identically** — the whole point of
the library.  Decoded frames carry ``values`` as a float64
:class:`numpy.ndarray`, and frames handed to the codec must too.

**Versioning.**  Every frame, HELLO included, travels through the
binary codec; there is no negotiation.  HELLO carries
:data:`PROTOCOL_VERSION` and the server refuses any other version with
a ``version`` error.  A protocol-1 peer opens with a JSON body, whose
first byte is no valid frame-type code, so its HELLO fails to decode
and the connection is refused.

Client-to-server frames (``open``/``push``/``flush``) may carry a
``delivered`` field: the count of output items the client has safely
received for that stream.  It is the acknowledgement that lets the
server prune its bounded output-replay buffer and re-send exactly the
unacknowledged output range on resume (exactly-once delivery even when
a result frame is lost to a crash; see :mod:`repro.server.service`).

Decoding is strict: unknown frame types, missing or unknown fields,
wrong field types, negative counters, truncated or oversized frames and
undecodable payloads all raise :class:`repro.errors.ProtocolError` —
never a raw ``KeyError`` from frame plumbing, and never a silently
half-understood frame (fuzzed in ``tests/unit/test_protocol.py``,
mirroring the checkpoint deserialization contract).  One cut no codec
can see — a body torn inside its payload on an 8-byte boundary decodes
with fewer values — is caught by the client, which requires a RESULT's
values to end exactly at its ``items_out``.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct

import numpy as np

from repro.errors import ProtocolError

#: Protocol version spoken by this library; HELLO frames carry it and
#: mismatches are rejected during the handshake.  Version 2 dropped the
#: JSON frame encoding of version 1: every frame is binary.
PROTOCOL_VERSION = 2

#: Upper bound on one frame body, in bytes, for the codec and every
#: transport.  At 8 MiB a frame holds ~1M float64 items — far beyond a
#: sane chunk — so anything larger is a corrupt or hostile length
#: prefix, rejected before its body is buffered.
MAX_FRAME_BYTES = 8 * 1024 * 1024


#: Per-frame-type field contract: (required, optional).  Unknown fields
#: are rejected — a field this library does not understand would
#: otherwise be dropped silently (same strictness as checkpoints).
_FRAME_FIELDS = {
    "hello": (frozenset({"type", "version"}),
              frozenset({"tenant", "server", "credits"})),
    "open": (frozenset({"type", "stream_id", "kind", "key"}),
             frozenset({"watermark", "wm_length", "params", "encoding",
                        "encoding_options", "require_labels",
                        "transform_degree", "resume", "delivered"})),
    "push": (frozenset({"type", "stream_id", "seq", "values"}),
             frozenset({"delivered"})),
    "flush": (frozenset({"type", "stream_id"}),
              frozenset({"delivered"})),
    "result": (frozenset({"type", "op", "stream_id"}),
               frozenset({"seq", "values", "items_in", "items_out",
                          "finished", "detection"})),
    "credit": (frozenset({"type", "stream_id", "credits"}), frozenset()),
    "error": (frozenset({"type", "code", "message"}),
              frozenset({"stream_id"})),
    # The bare form is the client's request; the server's reply carries
    # the snapshot in ``payload``.  NOTE: "status" sorts *after* every
    # pre-existing frame name, so the binary codec's sorted type codes
    # for older frames are unchanged (pinned in test_protocol.py).
    "status": (frozenset({"type"}), frozenset({"payload"})),
    "bye": (frozenset({"type"}), frozenset({"reason"})),
}

#: Expected Python type per field (bools are not ints here).
_FIELD_TYPES = {
    "type": str,
    "version": int,
    "tenant": str,
    "server": str,
    "credits": int,
    "stream_id": str,
    "kind": str,
    "key": str,
    "watermark": str,
    "wm_length": int,
    "params": dict,
    "encoding": str,
    "encoding_options": dict,
    "require_labels": bool,
    "transform_degree": (int, float),
    "resume": bool,
    "seq": int,
    "delivered": int,
    "values": np.ndarray,
    "op": str,
    "items_in": int,
    "items_out": int,
    "finished": bool,
    "detection": dict,
    "code": str,
    "message": str,
    "reason": str,
    "payload": dict,
}

#: Integer fields that must be non-negative.
_NON_NEGATIVE = frozenset({"version", "credits", "seq",
                           "wm_length", "items_in", "items_out",
                           "delivered"})

#: Fields that must be non-empty strings.
_NON_EMPTY = frozenset({"type", "stream_id", "kind", "op", "code"})


def validate_frame(frame, *, source: str = "frame") -> dict:
    """Check one decoded frame object; raise :class:`ProtocolError` if bad.

    ``source`` names where the frame came from (a peer address, "encode")
    so error messages point at the offending side.  Returns the frame
    unchanged on success.
    """
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"{source}: frame must be a JSON object, "
            f"got {type(frame).__name__}"
        )
    frame_type = frame.get("type")
    if not isinstance(frame_type, str) or frame_type not in _FRAME_FIELDS:
        raise ProtocolError(
            f"{source}: unknown frame type {frame_type!r}; expected one "
            f"of {sorted(_FRAME_FIELDS)}"
        )
    required, optional = _FRAME_FIELDS[frame_type]
    unknown = set(frame) - required - optional
    if unknown:
        raise ProtocolError(
            f"{source}: unknown fields {sorted(unknown)} in "
            f"{frame_type!r} frame"
        )
    missing = required - set(frame)
    if missing:
        raise ProtocolError(
            f"{source}: {frame_type!r} frame is missing required fields "
            f"{sorted(missing)}"
        )
    for name, value in frame.items():
        expected = _FIELD_TYPES[name]
        # JSON has distinct true/int, but Python bool *is* int — reject
        # booleans wherever an integer is expected (and vice versa).
        if isinstance(value, bool) and expected is not bool:
            raise ProtocolError(
                f"{source}: field {name!r} must be "
                f"{getattr(expected, '__name__', expected)}, got bool"
            )
        if not isinstance(value, expected):
            expected_name = (expected.__name__
                             if isinstance(expected, type) else "number")
            raise ProtocolError(
                f"{source}: field {name!r} must be {expected_name}, got "
                f"{type(value).__name__}"
            )
        if name in _NON_NEGATIVE and value < 0:
            raise ProtocolError(
                f"{source}: field {name!r} must be >= 0, got {value}"
            )
        if name in _NON_EMPTY and not value:
            raise ProtocolError(
                f"{source}: field {name!r} must be a non-empty string"
            )
    return frame


# ----------------------------------------------------------------------
# payload encoding
# ----------------------------------------------------------------------
def encode_array(values) -> str:
    """Encode a float64 array as base64 text (bit-exact round-trip).

    The replay sidecar persists its output chunks in this form; frames
    carry raw float64 bytes instead (:class:`BinaryFrameCodec`).
    """
    array = np.asarray(values, dtype="<f8").ravel()
    return base64.b64encode(array.tobytes()).decode("ascii")


def decode_array(text: str, *, source: str = "frame") -> np.ndarray:
    """Decode :func:`encode_array` text back into a float64 array."""
    if not isinstance(text, str):
        raise ProtocolError(
            f"{source}: values payload must be a base64 string, got "
            f"{type(text).__name__}"
        )
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error, ValueError) as exc:
        raise ProtocolError(
            f"{source}: values payload is not valid base64: {exc}"
        ) from exc
    if len(raw) % 8:
        raise ProtocolError(
            f"{source}: values payload of {len(raw)} bytes is not a "
            "whole number of float64 items (truncated?)"
        )
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def as_float64(values) -> np.ndarray:
    """Coerce a decoded payload to a native float64 array (no copy when
    it already is one, as on little-endian machines)."""
    array = np.asarray(values)
    if array.dtype == np.float64:
        return array
    return array.astype(np.float64)


def encode_key(key: bytes) -> str:
    """Encode secret key bytes for the OPEN frame (transport only —
    the server holds keys in memory and never persists them)."""
    if isinstance(key, str):
        key = key.encode("utf-8")
    return base64.b64encode(bytes(key)).decode("ascii")


def decode_key(text: str, *, source: str = "frame") -> bytes:
    """Decode an OPEN frame's key field back into key bytes."""
    try:
        key = base64.b64decode(str(text).encode("ascii"), validate=True)
    except (UnicodeEncodeError, binascii.Error, ValueError) as exc:
        raise ProtocolError(
            f"{source}: key is not valid base64: {exc}"
        ) from exc
    if not key:
        raise ProtocolError(f"{source}: key must not be empty")
    return key


# ----------------------------------------------------------------------
# the frame codec
# ----------------------------------------------------------------------
#: Binary frame body header: frame-type code (uint8), flags (uint8,
#: bit 0 = a values payload follows the meta section), meta length
#: (uint32 little-endian).
_BINARY_HEADER = struct.Struct("<BBI")
_BINARY_HAS_VALUES = 0x01
_TYPE_CODES = {name: code + 1
               for code, name in enumerate(sorted(_FRAME_FIELDS))}
_TYPE_NAMES = {code: name for name, code in _TYPE_CODES.items()}


class BinaryFrameCodec:
    """Frame dict <-> frame body bytes: struct header + raw float64.

    The codec is transport-agnostic — it sees one frame *body* at a
    time; message delimiting (length prefixes, WebSocket frames) is the
    transport's job (:mod:`repro.server.transports`).

    Body layout::

        offset 0  uint8   frame-type code (1..9, sorted frame names)
        offset 1  uint8   flags (bit 0: values payload present)
        offset 2  uint32  meta length M, little-endian
        offset 6  M bytes meta: UTF-8 JSON object of every field except
                          ``type`` and ``values``
        offset 6+M ...    values payload: raw little-endian float64

    The payload decodes with :func:`numpy.frombuffer` straight into an
    array view over the received body — no base64, no per-item Python
    objects — which is what drops the remote-serving overhead to near
    the in-process cost.  Decoding is strict: bad type codes,
    truncated headers, meta that is not a JSON object, meta smuggling
    ``type``/``values`` fields, a payload that is not a whole number of
    float64 items, or a payload on a flagless frame all raise
    :class:`ProtocolError`.
    """

    def encode(self, frame: dict) -> bytes:
        """Serialize one frame to its binary body bytes."""
        validate_frame(frame, source="encode")
        values = frame.get("values")
        meta = {name: value for name, value in frame.items()
                if name not in ("type", "values")}
        try:
            meta_bytes = json.dumps(
                meta, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"frame meta is not JSON-serializable: {exc}") from exc
        payload = (np.ascontiguousarray(values, dtype="<f8").tobytes()
                   if values is not None else b"")
        flags = _BINARY_HAS_VALUES if values is not None else 0
        body = (_BINARY_HEADER.pack(_TYPE_CODES[frame["type"]], flags,
                                    len(meta_bytes))
                + meta_bytes + payload)
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(body)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte frame limit; push smaller chunks"
            )
        return body

    def decode(self, body: bytes, *, source: str = "frame") -> dict:
        """Decode one binary body; the payload becomes an ndarray view."""
        body = bytes(body)
        if len(body) < _BINARY_HEADER.size:
            raise ProtocolError(
                f"{source}: binary frame of {len(body)} bytes is shorter "
                f"than the {_BINARY_HEADER.size}-byte header"
            )
        type_code, flags, meta_len = _BINARY_HEADER.unpack_from(body)
        type_name = _TYPE_NAMES.get(type_code)
        if type_name is None:
            raise ProtocolError(
                f"{source}: unknown binary frame type code {type_code}"
            )
        if flags & ~_BINARY_HAS_VALUES:
            raise ProtocolError(
                f"{source}: unknown binary frame flags 0x{flags:02x}"
            )
        payload_offset = _BINARY_HEADER.size + meta_len
        if payload_offset > len(body):
            raise ProtocolError(
                f"{source}: binary frame meta length {meta_len} overruns "
                f"the {len(body)}-byte body (truncated?)"
            )
        try:
            meta = json.loads(
                body[_BINARY_HEADER.size:payload_offset].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"{source}: binary frame meta is not valid UTF-8 JSON: "
                f"{exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise ProtocolError(
                f"{source}: binary frame meta must be a JSON object, got "
                f"{type(meta).__name__}"
            )
        if "type" in meta or "values" in meta:
            raise ProtocolError(
                f"{source}: binary frame meta must not carry "
                "'type'/'values' fields"
            )
        frame = {"type": type_name, **meta}
        payload_bytes = len(body) - payload_offset
        if not flags & _BINARY_HAS_VALUES:
            if payload_bytes:
                raise ProtocolError(
                    f"{source}: {payload_bytes} payload bytes on a frame "
                    "whose flags declare no values"
                )
        else:
            if payload_bytes % 8:
                raise ProtocolError(
                    f"{source}: values payload of {payload_bytes} bytes "
                    "is not a whole number of float64 items (truncated?)"
                )
            frame["values"] = as_float64(
                np.frombuffer(body, dtype="<f8", offset=payload_offset))
        return validate_frame(frame, source=source)


#: The codec every frame travels through.
CODEC = BinaryFrameCodec()

#: Protocol version -> codec.  One entry; ``perfbench/tracing.py``
#: wraps the ``encode``/``decode`` methods of the classes listed here.
CODECS = {PROTOCOL_VERSION: CODEC}

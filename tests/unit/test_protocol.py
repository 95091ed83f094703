"""Wire-protocol contract: round-trips, strict decoding, fuzzing.

Mirrors the checkpoint deserialization fuzz suites: any malformed,
truncated, oversized, wrong-version or junk-typed frame must raise a
clean :class:`repro.errors.ProtocolError` — never a raw ``KeyError`` /
``struct.error`` from the framing plumbing, and never a silently
half-understood frame.  One truncation the codec cannot see — a body
cut inside its payload on an 8-byte boundary — is pinned separately.
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server.protocol import (
    CODEC,
    CODECS,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    BinaryFrameCodec,
    decode_array,
    decode_key,
    encode_array,
    encode_key,
    validate_frame,
)
from repro.server.transports import _TcpConnection

HELLO = {"type": "hello", "version": PROTOCOL_VERSION, "tenant": "default"}
PUSH = {"type": "push", "stream_id": "s1", "seq": 0,
        "values": np.array([0.25, -0.125])}
FRAMES = [
    HELLO,
    {"type": "hello", "version": PROTOCOL_VERSION, "server": "repro/1.0.0",
     "credits": 4},
    {"type": "open", "stream_id": "s1", "kind": "protection",
     "key": encode_key(b"k1"), "watermark": "101", "resume": True},
    PUSH,
    {"type": "flush", "stream_id": "s1"},
    {"type": "result", "op": "push", "stream_id": "s1", "seq": 3,
     "values": np.array([]), "items_in": 12, "items_out": 7},
    {"type": "credit", "stream_id": "s1", "credits": 1},
    {"type": "error", "code": "flow", "message": "no credits",
     "stream_id": "s1"},
    {"type": "bye", "reason": "drain"},
    {"type": "status"},
    {"type": "status", "payload": {
        "server": {"pushes": 3, "draining": False},
        "tenants": {"default": {"streams": 1}},
        "metrics": {"enabled": True,
                    "counters": {"server_frames_in_total"
                                 "{transport=tcp}": 7},
                    "histograms": {"hub_push_us": {"count": 2,
                                                   "p99": 125.0}}}}},
]


class TestRoundTrip:
    @pytest.mark.parametrize("frame", FRAMES,
                             ids=[f["type"] for f in FRAMES])
    def test_encode_decode_roundtrip(self, frame):
        """Every frame shape survives the wire byte-for-byte: encoding
        a decoded body reproduces the same bytes."""
        body = CODEC.encode(frame)
        assert CODEC.encode(CODEC.decode(body)) == body

    def test_array_roundtrip_bit_identical(self):
        values = np.array([0.1, -0.30000000000000004, 1e-308, 0.0, -0.5])
        assert np.array_equal(decode_array(encode_array(values)), values)

    def test_empty_array_roundtrip(self):
        assert decode_array(encode_array([])).size == 0

    def test_key_roundtrip(self):
        assert decode_key(encode_key(b"\x00secret\xff")) == b"\x00secret\xff"
        assert decode_key(encode_key("text-key")) == b"text-key"

    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=64))
    def test_array_roundtrip_property(self, values):
        array = np.asarray(values, dtype=np.float64)
        assert np.array_equal(decode_array(encode_array(array)), array)


class TestStrictValidation:
    def test_unknown_frame_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            validate_frame({"type": "launch-missiles"})

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            validate_frame([1, 2, 3])

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fields"):
            validate_frame({**HELLO, "extra": 1})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="missing required"):
            validate_frame({"type": "push", "stream_id": "s1", "seq": 0})

    def test_wrong_field_type_rejected(self):
        with pytest.raises(ProtocolError, match="must be int"):
            validate_frame({"type": "hello", "version": "1"})

    def test_bool_is_not_an_int(self):
        """JSON true must not satisfy integer fields via bool-is-int."""
        with pytest.raises(ProtocolError, match="got bool"):
            validate_frame({"type": "credit", "stream_id": "s",
                            "credits": True})

    def test_negative_counters_rejected(self):
        with pytest.raises(ProtocolError, match=">= 0"):
            validate_frame({"type": "credit", "stream_id": "s",
                            "credits": -1})

    def test_empty_stream_id_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            validate_frame({"type": "flush", "stream_id": ""})

    def test_oversized_frame_rejected_at_encode(self):
        """The cap covers the meta section too, not just payloads."""
        frame = {"type": "status",
                 "payload": {"blob": "A" * MAX_FRAME_BYTES}}
        with pytest.raises(ProtocolError, match="exceeds"):
            CODEC.encode(frame)

    def test_oversized_length_prefix_rejected_before_buffering(self):
        """The TCP framing refuses a hostile length prefix on sight: the
        body byte behind it is never read."""
        class _Writer:
            def get_extra_info(self, name):
                return None

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 2 ** 31) + b"x")
            reader.feed_eof()
            channel = _TcpConnection(reader, _Writer())
            with pytest.raises(ProtocolError, match="length prefix"):
                await channel.read_message()
            return await reader.read()

        assert asyncio.run(asyncio.wait_for(scenario(), 15)) == b"x"

    def test_default_limit_is_sane(self):
        assert MAX_FRAME_BYTES >= 1024 * 1024


class TestDecodeFuzz:
    """Hostile bytes and junk values into the decoder."""

    @given(st.sampled_from(FRAMES), st.booleans(), st.integers(0, 64),
           st.binary(max_size=64))
    def test_arbitrary_bytes_never_crash_raw(self, frame, has_values,
                                             meta_len, data):
        """Raw bytes behind a well-formed header reach the meta and
        payload parsers; they decode to a frame of the header's type
        or raise clean."""
        flags = 0x01 if has_values else 0x00
        body = (bytes(CODEC.encode(frame)[:1])
                + struct.pack("<BI", flags, min(meta_len, len(data)))
                + data)
        try:
            decoded = CODEC.decode(body)
        except ProtocolError:
            return
        assert decoded["type"] == frame["type"]

    @pytest.mark.parametrize("frame", FRAMES,
                             ids=[f["type"] for f in FRAMES])
    def test_truncated_bodies_rejected(self, frame):
        """Every proper prefix of a frame body fails cleanly — except a
        cut inside the payload on an 8-byte boundary, which decodes to
        the same frame with fewer values.  The codec cannot see that
        damage; the client's RESULT position check does."""
        body = CODEC.encode(frame)
        payload_start = len(body) - 8 * np.size(frame.get("values", ()))
        for cut in range(len(body)):
            if "values" in frame and cut >= payload_start \
                    and (cut - payload_start) % 8 == 0:
                short = CODEC.decode(body[:cut])
                kept = (cut - payload_start) // 8
                assert short["values"].tobytes() \
                    == frame["values"][:kept].tobytes()
                continue
            with pytest.raises(ProtocolError):
                CODEC.decode(body[:cut])

    @given(st.sampled_from(FRAMES),
           st.sampled_from(["type", "stream_id", "seq", "credits",
                            "values", "version", "op", "code"]),
           st.one_of(st.none(), st.integers(-5, 5), st.booleans(),
                     st.text(max_size=3), st.lists(st.integers(),
                                                   max_size=2)))
    def test_field_type_mutations_rejected_or_equal(self, frame, field,
                                                    junk):
        """Mutating any field either leaves a valid frame or raises
        ProtocolError — never a raw TypeError/KeyError."""
        if field not in frame:
            return
        mutated = {**frame, field: junk}
        try:
            validate_frame(mutated)
        except ProtocolError:
            return
        # Accepted mutants must be genuinely valid (same type, sane value)
        assert isinstance(junk, type(frame[field])) or frame[field] == junk

    def test_junk_base64_values_rejected(self):
        with pytest.raises(ProtocolError, match="base64"):
            decode_array("not@base64!")

    def test_non_float64_sized_payload_rejected(self):
        """base64 decoding to 3 bytes is not a whole float64 item."""
        with pytest.raises(ProtocolError, match="float64"):
            decode_array("AAAA")

    def test_junk_key_rejected(self):
        with pytest.raises(ProtocolError, match="base64"):
            decode_key("###")

    def test_empty_key_rejected(self):
        with pytest.raises(ProtocolError, match="empty"):
            decode_key("")


class TestCodecs:
    """The binary codec: round-trips, payload layout, registry."""

    @pytest.mark.parametrize("frame", FRAMES,
                             ids=[f["type"] for f in FRAMES])
    def test_binary_roundtrip_every_frame_shape(self, frame):
        """Every frame shape survives the codec with float64
        bit-identity."""
        decoded = CODEC.decode(CODEC.encode(frame))
        expected = dict(frame)
        if "values" in expected:
            values = expected.pop("values")
            out = decoded.pop("values")
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.tobytes() == values.tobytes()
        assert decoded == expected

    def test_binary_accepts_ndarray_values(self):
        """Handlers push ndarrays straight through without base64."""
        values = np.array([0.1, -2.5, float("inf")])
        frame = {"type": "push", "stream_id": "s1", "seq": 0,
                 "values": values}
        decoded = CODEC.decode(CODEC.encode(frame))
        assert decoded["values"].tobytes() == values.tobytes()

    def test_payload_is_eight_bytes_per_item(self):
        """Values travel as raw float64: no base64, no per-item text."""
        frame = {"type": "push", "stream_id": "s1", "seq": 0,
                 "values": np.arange(1000, dtype=np.float64)}
        assert len(CODEC.encode(frame)) \
            == len(CODEC.encode({**frame, "values": np.array([])})) + 8000

    def test_text_values_rejected(self):
        """Protocol 2 carries values only as arrays, never as the
        protocol-1 base64 text."""
        with pytest.raises(ProtocolError, match="values"):
            CODEC.encode({**PUSH, "values": encode_array([0.5])})

    def test_registry_is_consistent(self):
        """The protocol version maps to the codec every connection
        speaks, and each listed codec class defines encode/decode."""
        assert CODECS == {PROTOCOL_VERSION: CODEC}
        for codec in CODECS.values():
            assert "encode" in type(codec).__dict__
            assert "decode" in type(codec).__dict__


def _binary_body(frame=None, **overrides) -> bytearray:
    """A valid frame body as a mutable bytearray for corruption."""
    frame = frame or {"type": "push", "stream_id": "s1", "seq": 0,
                      "values": np.array([1.5, -2.5])}
    return bytearray(BinaryFrameCodec().encode(frame, **overrides))


class TestBinaryStrictness:
    """Hostile binary bodies die with clean ProtocolErrors."""

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError, match="header"):
            BinaryFrameCodec().decode(bytes(_binary_body()[:5]))

    @pytest.mark.parametrize("code", [0, 10, 255])
    def test_unknown_type_code_rejected(self, code):
        body = _binary_body()
        body[0] = code
        with pytest.raises(ProtocolError, match="type code"):
            BinaryFrameCodec().decode(bytes(body))

    def test_unknown_flag_bits_rejected(self):
        body = _binary_body()
        body[1] |= 0x80
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().decode(bytes(body))

    def test_meta_overrunning_body_rejected(self):
        body = _binary_body()
        struct.pack_into("<I", body, 2, len(body))  # meta_len > remaining
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().decode(bytes(body))

    def test_non_utf8_meta_rejected(self):
        body = _binary_body({"type": "flush", "stream_id": "sX"})
        offset = body.index(b"sX")
        body[offset:offset + 2] = b"\xff\xfe"
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().decode(bytes(body))

    def test_non_object_meta_rejected(self):
        meta = b"[1,2]"
        body = struct.pack("<BBI", 4, 0, len(meta)) + meta
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().decode(body)

    @pytest.mark.parametrize("smuggled", ["type", "values"])
    def test_meta_smuggling_reserved_fields_rejected(self, smuggled):
        """The header owns ``type`` and the payload owns ``values`` —
        a meta object must not override either."""
        meta = json.dumps({"stream_id": "s1", smuggled: "x"}).encode()
        body = struct.pack("<BBI", 4, 0, len(meta)) + meta
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().decode(body)

    def test_ragged_payload_rejected(self):
        body = _binary_body()
        with pytest.raises(ProtocolError, match="float64"):
            BinaryFrameCodec().decode(bytes(body[:-3]))

    def test_payload_without_flag_rejected(self):
        meta = json.dumps({"stream_id": "s1"}).encode()
        body = struct.pack("<BBI", 4, 0, len(meta)) + meta + b"\0" * 8
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().decode(body)

    def test_decoded_frames_are_validated(self):
        """A well-formed body carrying an invalid frame still dies."""
        meta = json.dumps({"credits": -1, "stream_id": "s1"}).encode()
        body = struct.pack("<BBI", 2, 0, len(meta)) + meta
        with pytest.raises(ProtocolError):
            BinaryFrameCodec().decode(body)

    def test_oversized_encode_rejected(self):
        frame = {"type": "push", "stream_id": "s1", "seq": 0,
                 "values": np.zeros(MAX_FRAME_BYTES // 8)}
        with pytest.raises(ProtocolError, match="exceeds"):
            BinaryFrameCodec().encode(frame)

    @given(st.binary(max_size=200))
    def test_arbitrary_bodies_never_crash(self, data):
        """Fuzz: garbage bodies raise ProtocolError, nothing rawer."""
        try:
            BinaryFrameCodec().decode(data)
        except ProtocolError:
            pass


class TestStatusFrame:
    """The observability frame: round-trips and a frozen code table."""

    STATUS = {"type": "status", "payload": {
        "server": {"pushes": 12, "draining": True,
                   "uptime_seconds": 1.5},
        "tenants": {"acme": {"streams": 2}},
        "metrics": {"enabled": True, "counters": {
            "server_frames_in_total{transport=tcp}": 9}},
    }}

    def test_nested_snapshot_roundtrips(self):
        assert CODEC.decode(CODEC.encode(self.STATUS)) == self.STATUS

    def test_bare_request_roundtrips(self):
        assert CODEC.decode(CODEC.encode({"type": "status"})) \
            == {"type": "status"}

    def test_payload_must_be_an_object(self):
        with pytest.raises(ProtocolError, match="payload"):
            validate_frame({"type": "status", "payload": "nope"})

    def test_unknown_status_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown"):
            validate_frame({"type": "status", "snapshot": {}})

    def test_binary_type_codes_are_frozen(self):
        """STATUS must not renumber the pre-existing binary type codes.

        Codes are assigned by sorted frame name; "status" sorts after
        every earlier name, so it MUST be the last code.  A frame type
        added later must keep sorting after "status" (or the codec
        needs an explicit, versioned table) — this pin is the tripwire.
        """
        from repro.server.protocol import _TYPE_CODES

        assert _TYPE_CODES == {
            "bye": 1, "credit": 2, "error": 3, "flush": 4, "hello": 5,
            "open": 6, "push": 7, "result": 8, "status": 9,
        }

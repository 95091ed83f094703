"""Spans for the benchmark's traced runs, recorded from outside the program.

A span is one call into a layer's public function.  It records a name,
its start and end (``time.perf_counter_ns``: CLOCK_MONOTONIC on Linux,
so client and server spans share one time base), its own id, the id of
the span that was current when it began, a request id and one extra
value (items, bytes, a store role, ...).

The request id is ``"<stream id>#<push ordinal>"``.  The client counts
feeds per stream and the server counts ``StreamHub.push`` calls per
stream; each feed is one PUSH frame, so the two ordinals match the
frame's ``seq`` as long as no reconnect replays a push (the benchmark
reports ``client.reconnects`` next to every traced figure).

Spans stay in memory.  The client keeps them in its own process; the
traced server (``serve_traced.py``) writes its spans to a file once it
has drained.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import inspect
import itertools
import json
import re
import time

import numpy as np

#: Keep one ``to_state`` result in this many to size checkpoints after
#: the run (sizing them inside the span would inflate ``hub.checkpoint``).
STATE_SAMPLE_EVERY = 16

_PUSH_REQUEST = re.compile(r"^(?P<stream>.+)#(?P<ordinal>\d+)$")


def frame_request(frame: dict) -> "str | None":
    """The request id a PUSH or push RESULT frame belongs to."""
    if frame.get("seq") is None or frame.get("stream_id") is None:
        return None
    return f"{frame['stream_id']}#{frame['seq']}"


def push_stream(request: "str | None") -> "str | None":
    """The stream id of a push request id, else ``None``."""
    if request is None:
        return None
    match = _PUSH_REQUEST.match(request)
    return match.group("stream") if match else None


class Tracer:
    """In-memory span recorder that wraps methods at class level."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, span_id, parent_id, request, extra)
        self.spans: "list[tuple]" = []
        self.state_samples: "list[dict]" = []
        self._ids = itertools.count(1)
        self._span = contextvars.ContextVar("perfbench_span", default=0)
        self._request = contextvars.ContextVar("perfbench_request",
                                               default=None)
        # The request of the last RESULT frame encoded in this task: the
        # server writes it later, outside any span that carries it.
        self._encoded = contextvars.ContextVar("perfbench_encoded",
                                               default=None)
        self._ordinals: "collections.Counter[str]" = collections.Counter()
        self._to_state_calls = 0
        self._restore: "list[tuple]" = []

    # -- request ids ------------------------------------------------------
    def next_request(self, stream_id: str) -> str:
        """Request id of the next push of ``stream_id`` (counts it)."""
        ordinal = self._ordinals[stream_id]
        self._ordinals[stream_id] += 1
        return f"{stream_id}#{ordinal}"

    def last_request(self, stream_id: str) -> "str | None":
        """Request id of the latest push of ``stream_id``."""
        ordinal = self._ordinals[stream_id]
        return f"{stream_id}#{ordinal - 1}" if ordinal else None

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, before=None,
             after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records one span.

        ``before(args)`` gives the span's request id (``None``: inherit
        the caller's); ``after(args, result)`` returns ``(request,
        extra)``, where a non-``None`` request overrides.  A call that
        raises records no span.
        """
        original = owner.__dict__[attr]
        tracer = self

        def enter(args):
            request = (before(args) if before else None) \
                or tracer._request.get()
            span_id = next(tracer._ids)
            tokens = (tracer._span.set(span_id),
                      tracer._request.set(request))
            return request, span_id, tokens

        def leave(tokens):
            tracer._span.reset(tokens[0])
            tracer._request.reset(tokens[1])

        def record(args, result, request, span_id, parent, start, end):
            extra = None
            if after is not None:
                override, extra = after(args, result)
                request = override or request
            tracer.spans.append((name, start, end, span_id, parent,
                                 request, extra))

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                parent = tracer._span.get()
                request, span_id, tokens = enter(args)
                start = time.perf_counter_ns()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    leave(tokens)
                record(args, result, request, span_id, parent, start, end)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                parent = tracer._span.get()
                request, span_id, tokens = enter(args)
                start = time.perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    leave(tokens)
                record(args, result, request, span_id, parent, start, end)
                return result
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- wrapper sets -------------------------------------------------------
    def install_wire(self) -> None:
        """Codec and transport wrappers, used on both sides."""
        from repro.server import protocol
        from repro.server.transports import TransportConnection

        def decoded(args, frame):
            return frame_request(frame), len(args[1])

        def encoded(args, body):
            frame = args[1]
            request = frame_request(frame)
            if frame.get("type") == "result":
                self._encoded.set(request)
            return request, len(body)

        for codec in {type(codec) for codec in protocol.CODECS.values()}:
            self.wrap(codec, "encode", "codec.encode", after=encoded)
            self.wrap(codec, "decode", "codec.decode", after=decoded)

        def write_request(args):
            return self._request.get() or self._encoded.get()

        pending = [TransportConnection]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "read_message" in cls.__dict__:
                self.wrap(cls, "read_message", "transport.read")
            if "write_message" in cls.__dict__:
                self.wrap(cls, "write_message", "transport.write",
                          before=write_request,
                          after=lambda args, _: (None, 1))
            if "write_messages" in cls.__dict__:
                self.wrap(cls, "write_messages", "transport.write",
                          before=write_request,
                          after=lambda args, _: (None, len(args[1])))

    def install_client(self) -> None:
        """Wrappers for the client process of a served workload."""
        from repro.server.client import AsyncRemoteSession

        self.wrap(AsyncRemoteSession, "feed", "client.feed",
                  before=lambda args: self.next_request(args[0].stream_id),
                  after=lambda args, _: (None, int(np.size(args[1]))))
        self.wrap(AsyncRemoteSession, "finish", "client.finish",
                  before=lambda args: f"{args[0].stream_id}#finish")
        self.install_wire()

    def install_encodings(self) -> None:
        """``embed``/``detect`` of every registered encoding."""
        from repro.registry import REGISTRY

        for encoding in REGISTRY.names("encoding"):
            cls = REGISTRY.get("encoding", encoding)
            for method in ("embed", "detect"):
                if method in cls.__dict__:
                    self.wrap(cls, method, f"encoding.{method}",
                              after=lambda args, _, n=encoding: (None, n))

    def install_server(self) -> None:
        """Wrappers for the ``repro serve`` process."""
        from repro.hub import StreamHub
        from repro.pipeline import ProtectionSession
        from repro.stores import CheckpointStore

        def sample_state(args, state):
            self._to_state_calls += 1
            if self._to_state_calls % STATE_SAMPLE_EVERY == 1:
                self.state_samples.append(state)
            return None, None

        def store_role(args, _):
            state = args[2]
            kind = state.get("kind", "") if isinstance(state, dict) else ""
            return None, ("session" if str(kind).endswith("-session")
                          else "sidecar")

        self.wrap(StreamHub, "push", "hub.push",
                  before=lambda args: self.next_request(args[1]),
                  after=lambda args, _: (None, int(np.size(args[2]))))
        self.wrap(StreamHub, "checkpoint", "hub.checkpoint",
                  before=lambda args: self.last_request(args[1]))
        self.wrap(CheckpointStore, "save", "stores.save", after=store_role)
        self.wrap(ProtectionSession, "feed", "pipeline.feed",
                  after=lambda args, _: (None, int(np.size(args[1]))))
        self.wrap(ProtectionSession, "to_state", "pipeline.to_state",
                  after=sample_state)
        self.install_encodings()
        self.install_wire()

    # -- output -------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write spans and sampled checkpoint sizes as one JSON file."""
        sizes = [len(json.dumps(state)) for state in self.state_samples]
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "state_bytes": sizes}, handle)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def duration_us(span) -> float:
    """A span's wall duration in microseconds."""
    return (span[2] - span[1]) / 1e3


def union_ns(intervals) -> "list[tuple[int, int]]":
    """Disjoint, sorted union of ``(start, end)`` intervals."""
    merged: "list[list[int]]" = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def covered_ns(outer, inner) -> int:
    """Length of the part of union ``outer`` that union ``inner`` covers."""
    total = 0
    j = 0
    for start, end in outer:
        while j < len(inner) and inner[j][1] <= start:
            j += 1
        k = j
        while k < len(inner) and inner[k][0] < end:
            total += min(end, inner[k][1]) - max(start, inner[k][0])
            k += 1
    return total


def self_time_us(spans) -> "dict[int, float]":
    """Self time per span id: its duration minus its children's union."""
    children: "dict[int, list]" = collections.defaultdict(list)
    for span in spans:
        if span[4]:
            children[span[4]].append((span[1], span[2]))
    out = {}
    for span in spans:
        inner = union_ns(children.get(span[3], ()))
        out[span[3]] = (span[2] - span[1]
                        - covered_ns([(span[1], span[2])], inner)) / 1e3
    return out

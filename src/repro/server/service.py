"""Transport-blind serving engine: many tenants, one endpoint.

:class:`StreamService` is the deployable face of the library — the
SecureStreams / Gabriel middleware shape: one server multiplexes many
stream sources behind one endpoint, each tenant namespace backed by
its own :class:`~repro.hub.StreamHub` and
:class:`~repro.stores.CheckpointStore`.  The engine never touches
sockets: it exchanges frame bodies through a named
:class:`~repro.server.transports.Transport` (``tcp`` or ``websocket``,
from :data:`~repro.server.transports.TRANSPORTS`), and every frame is
encoded by the one binary codec
(:class:`~repro.server.protocol.BinaryFrameCodec`, raw float64
payloads).

Design points:

* **credit-based flow control** — the server grants each opened stream
  ``credits`` outstanding PUSH frames (the HELLO reply announces the
  grant); every processed PUSH returns its credit via a CREDIT frame.
  A client that pushes beyond its credit gets a ``flow`` ERROR and the
  frame is dropped — backpressure instead of unbounded buffering.
* **sliced pushes** — one event loop serves every connection, so a
  PUSH frame is ingested one scanner sub-batch
  (:attr:`~repro.core.params.WatermarkParams.scan_batch`, 512 items at
  the default window) per :meth:`~repro.hub.StreamHub.push` call, with
  the loop yielded in between: a small push on another connection
  waits behind one sub-batch of a large push, not all of it.  The
  scanner cuts every chunk at the same boundaries, so the bits do not
  change.  Hub ``pushes`` therefore count slices; the server's own
  ``pushes`` count PUSH frames.
* **durability** — sessions checkpoint on a per-stream push cadence
  (``checkpoint_every``), on an optional wall-clock interval, when a
  connection ends, and during drain; a failed save is counted and
  logged, and the other streams' saves go on.  Keys arrive in OPEN
  frames and live only in process memory.
* **exactly-once outputs** — result payloads a client has not yet
  acknowledged (the ``delivered`` field on its frames) are kept in a
  bounded per-stream replay buffer, persisted in a sidecar entry
  *before* every session checkpoint (via the hub's checkpoint hook).
  On resume the server re-sends exactly the unacknowledged output
  range, so a result frame lost to a dropped connection — or to a
  SIGKILL between a checkpoint and the client's read — is redelivered
  rather than lost, and the client's dedup line drops any overlap.
* **graceful drain** — on SIGTERM (``repro serve`` installs the
  handler) the service checkpoints every stream, notifies each
  connected client with ``BYE {reason: "drain"}``, closes, and the CLI
  exits 0.
* **crash recovery** — started with ``recover=True`` over an existing
  store, the service re-admits each checkpointed stream lazily when its
  client reconnects and re-supplies the key (checkpoints are key-free,
  so eager recovery is impossible by design); OPEN's RESULT reports
  ``items_in``/``items_out`` so the client replays exactly the
  unseen suffix.  Finished streams are dropped from hub *and* store
  after their FLUSH result is sent, so a long-lived server does not
  leak (see :meth:`repro.hub.StreamHub.drop`).
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import time
from collections import deque
from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

from repro.core.params import WatermarkParams
from repro.core.serialize import params_from_dict
from repro.errors import ProtocolError, ReproError
from repro.hub import StreamHub
from repro.obs import MetricsRegistry
from repro.server import protocol
from repro.server.transports import (Listener, TransportConnection,
                                     build_transport)
from repro.stores import DirectoryCheckpointStore, MemoryCheckpointStore

logger = logging.getLogger("repro.server.service")

#: Default per-stream credit grant (outstanding PUSH frames).
DEFAULT_CREDITS = 4

#: How long a draining connection handler keeps serving in-flight
#: frames before saying BYE.  A STATUS request racing a SIGTERM lands
#: inside this window and still receives a well-formed final snapshot
#: instead of a connection reset.
DRAIN_GRACE_SECONDS = 0.25

#: Upper bound on frames one connection may land during its drain
#: grace, so a client spamming requests cannot hold the drain open.
DRAIN_GRACE_FRAMES = 32


def _key_fingerprint(tenant: str, stream_id: str, key: bytes) -> str:
    """One-way fingerprint binding a key to one stream of one tenant.

    Persisted in the replay sidecar so a ``--recover`` restart can
    refuse a resume under the wrong key (which would silently corrupt
    the watermark and lock out the owner).  The key itself is never
    stored; the domain-separated hash resists cross-stream correlation.
    """
    digest = hashlib.sha256()
    for part in (b"repro.server.keyfp", tenant.encode("utf-8"),
                 stream_id.encode("utf-8"), bytes(key)):
        digest.update(len(part).to_bytes(4, "big"))
        digest.update(part)
    return digest.hexdigest()


class _Connection:
    """Per-connection state: tenant binding, streams, credits."""

    def __init__(self, channel: TransportConnection,
                 metrics: MetricsRegistry, transport: str) -> None:
        self.channel = channel
        self.tenant: "str | None" = None
        self.hub: "StreamHub | None" = None
        #: stream_id -> remaining PUSH credits on this connection.
        self.credits: "dict[str, int]" = {}
        self.name = channel.peer
        #: The connection handler's task (the one that builds this).
        self.task = asyncio.current_task()
        #: Whether the handler is parked in a read between frames.
        self.waiting = False
        #: The drain grace timer over the current read, if one is armed.
        self.grace: "asyncio.TimerHandle | None" = None
        #: Set when that timer fired and interrupted the read.
        self.grace_over = False
        self.m_frames_in = metrics.counter("server_frames_in_total",
                                           transport=transport)
        self.m_frames_out = metrics.counter("server_frames_out_total",
                                            transport=transport)
        self.m_bytes_in = metrics.counter("server_bytes_in_total",
                                          transport=transport)
        self.m_bytes_out = metrics.counter("server_bytes_out_total",
                                           transport=transport)

    async def read(self) -> "dict | None":
        """Read and decode one frame; ``None`` on clean end-of-stream."""
        body = await self.channel.read_message()
        if body is None:
            return None
        self.m_frames_in.inc()
        self.m_bytes_in.inc(len(body))
        return protocol.CODEC.decode(body, source=f"frame from {self.name}")

    async def send(self, frame: dict) -> None:
        """Encode (validating) and write one frame to this client."""
        body = protocol.CODEC.encode(frame)
        self.m_frames_out.inc()
        self.m_bytes_out.inc(len(body))
        await self.channel.write_message(body)

    async def send_many(self, frames: "list[dict]") -> None:
        """Encode and write several frames in one transport batch."""
        bodies = [protocol.CODEC.encode(frame) for frame in frames]
        self.m_frames_out.inc(len(bodies))
        self.m_bytes_out.inc(sum(len(body) for body in bodies))
        await self.channel.write_messages(bodies)

    def arm_grace(self) -> None:
        """Give the current (or next) read :data:`DRAIN_GRACE_SECONDS`;
        interrupt the handler if it still waits in it then."""
        if self.grace is None:
            self.grace = asyncio.get_running_loop().call_later(
                DRAIN_GRACE_SECONDS, self._end_grace)

    def _end_grace(self) -> None:
        self.grace = None
        if self.waiting:
            self.grace_over = True
            self.task.cancel()

    async def close(self) -> None:
        """Close the transport, swallowing teardown races."""
        await self.channel.close()

    def abort(self) -> None:
        """Drop the connection immediately (crash-path tests use this)."""
        self.channel.abort()


class StreamService:
    """Serve :class:`~repro.hub.StreamHub` tenants over a transport.

    Parameters
    ----------
    host, port:
        Bind address.  Port 0 picks a free port; read it back from
        :attr:`address` after :meth:`start`.
    transport:
        Registered transport name (``tcp`` or ``websocket``; see the
        ``transport`` rows of ``repro list``).
    store_path:
        Root directory for durable per-tenant stores (each tenant gets
        ``store_path/<quoted-tenant>``).  ``None`` keeps checkpoints in
        per-tenant memory stores (no durability, still drains cleanly).
    credits:
        PUSH frames a client may have outstanding per stream.
    checkpoint_every:
        Hub checkpoint cadence (every N pushes per stream).
    checkpoint_interval:
        Optional wall-clock seconds between checkpoint-all sweeps.
    max_live_sessions:
        Per-tenant LRU residency cap (see :class:`StreamHub`).
    recover:
        Allow starting over a non-empty store and resuming its streams.
        Without it a non-empty store is refused, so a stale directory
        cannot be silently adopted.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` this server reports
        into.  Defaults to a fresh enabled registry — a serving process
        is the one place observability is on by default; pass
        ``MetricsRegistry(enabled=False)`` to switch it off.
    status_interval:
        Optional wall-clock seconds between periodic status snapshots
        handed to ``status_sink`` (the ``repro serve
        --status-interval`` JSON log line).
    status_sink:
        Callable receiving each periodic :meth:`status_snapshot` dict.
    fault_injector:
        Optional :class:`~repro.chaos.FaultInjector` (``repro serve
        --chaos``): wraps the listening transport and the per-tenant
        session stores with the chaos wrappers and arms the plan's
        process-crash gates inside the push path.  The replay sidecar
        stores stay unwrapped — they model the service's own metadata,
        not the failure domain under test.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 transport: str = "tcp",
                 store_path: "str | Path | None" = None,
                 credits: int = DEFAULT_CREDITS,
                 checkpoint_every: int = 1,
                 checkpoint_interval: "float | None" = None,
                 max_live_sessions: "int | None" = None,
                 recover: bool = False,
                 metrics: "MetricsRegistry | None" = None,
                 status_interval: "float | None" = None,
                 status_sink=None,
                 fault_injector=None) -> None:
        if credits < 1:
            raise ReproError(f"credits must be >= 1, got {credits}")
        self._host = host
        self._port = port
        self._transport_name = transport
        self._transport = build_transport(transport)
        self._fault_injector = fault_injector
        if fault_injector is not None \
                and fault_injector.plan.server_transport.active():
            from repro.chaos.wrappers import ChaosTransport
            self._transport = ChaosTransport(
                inner=self._transport, injector=fault_injector,
                side="server")
        self._store_path = Path(store_path) if store_path is not None else None
        self._credits = int(credits)
        self._checkpoint_every = int(checkpoint_every)
        self._checkpoint_interval = checkpoint_interval
        self._max_live = max_live_sessions
        self._recover = recover
        self._hubs: "dict[str, StreamHub]" = {}
        #: tenant -> sidecar store holding each stream's replay buffer.
        self._meta_stores: "dict[str, object]" = {}
        #: (tenant, stream_id) -> owning connection, while one is live.
        self._owners: "dict[tuple[str, str], _Connection]" = {}
        #: (tenant, stream_id) -> fingerprint of the key the stream was
        #: opened with (:func:`_key_fingerprint`, once per open).
        self._key_fps: "dict[tuple[str, str], str]" = {}
        #: (tenant, stream_id) -> deque of (start_pos, values) result
        #: payloads not yet acknowledged by the client.
        self._outbuf: "dict[tuple[str, str], deque]" = {}
        #: (tenant, stream_id) -> output items the client acknowledged.
        self._acked: "dict[tuple[str, str], int]" = {}
        #: (tenant, stream_id) -> pushes since registration (cadence).
        self._push_counts: "dict[tuple[str, str], int]" = {}
        self._connections: "set[_Connection]" = set()
        self._listener: "Listener | None" = None
        self._drained = asyncio.Event()
        self._draining = False
        self._drain_reason = "drain"
        self._drain_seconds: "float | None" = None
        self._started_at: "float | None" = None
        self._flusher: "asyncio.Task | None" = None
        self._status_task: "asyncio.Task | None" = None
        self._status_interval = status_interval
        self._status_sink = status_sink
        self.frames_in = 0
        self.pushes = 0
        self.errors = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._m_connections_total = m.counter("server_connections_total")
        self._m_credit_stalls = m.counter("server_credit_stalls_total")
        self._m_checkpoint_failures = m.counter(
            "server_checkpoint_failures_total")
        m.gauge_callback(
            "server_store_fallbacks",
            lambda: sum(self._store_stat(hub, "fallbacks")
                        for hub in self._hubs.values()))
        m.gauge_callback(
            "server_store_quarantined",
            lambda: sum(self._store_stat(hub, "quarantined")
                        for hub in self._hubs.values()))
        m.gauge_callback("server_connections", lambda: len(self._connections))
        m.gauge_callback("server_tenants", lambda: len(self._hubs))
        m.gauge_callback("server_replay_buffer_chunks",
                         lambda: sum(len(buf)
                                     for buf in self._outbuf.values()))
        m.gauge_callback(
            "server_replay_buffer_items",
            lambda: sum(values.size for buf in self._outbuf.values()
                        for _, values in buf))
        m.gauge_callback("server_frames_in", lambda: self.frames_in)
        m.gauge_callback("server_pushes", lambda: self.pushes)
        m.gauge_callback("server_errors", lambda: self.errors)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "tuple[str, int]":
        """Bind and start accepting; return the bound ``(host, port)``."""
        if self._store_path is not None and not self._recover:
            leftover = self.recoverable()
            if leftover:
                raise ReproError(
                    f"store {self._store_path} already holds checkpoints "
                    f"for {sum(len(v) for v in leftover.values())} "
                    "stream(s); start with --recover to resume them"
                )
        self._listener = await self._transport.serve(
            self._host, self._port, self._handle_connection)
        self._host, self._port = self._listener.address
        self._started_at = time.time()
        if self._checkpoint_interval:
            self._flusher = asyncio.create_task(self._checkpoint_loop())
        if self._status_interval:
            self._status_task = asyncio.create_task(self._status_loop())
        return self.address

    @property
    def address(self) -> "tuple[str, int]":
        """The bound ``(host, port)`` (final after :meth:`start`)."""
        return self._host, self._port

    async def serve_until_drained(self) -> None:
        """Block until :meth:`drain` completes (the CLI's main loop)."""
        await self._drained.wait()

    async def drain(self, reason: str = "drain") -> None:
        """Graceful shutdown: checkpoint all, notify clients, stop.

        Safe to call more than once; later calls wait for the first.
        Connection handlers own their goodbye: each keeps serving
        in-flight frames for :data:`DRAIN_GRACE_SECONDS` (so a STATUS
        request racing the SIGTERM still gets a well-formed final
        snapshot), then sends BYE and closes; this method waits for
        them and force-closes any straggler past the deadline.  A
        handler waiting in a read gets its grace timer here; a busy
        one arms its own when it next reads.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self._drain_reason = reason
        started = time.perf_counter()
        try:
            loops = [task for task in (self._flusher, self._status_task)
                     if task is not None]
            for task in loops:
                task.cancel()
            # Wait for the cancellations to land, so no sweep outlives
            # the drain.
            await asyncio.gather(*loops, return_exceptions=True)
            if self._listener is not None:
                self._listener.close()
            self.checkpoint_all()
            for connection in self._connections:
                if connection.waiting:
                    connection.arm_grace()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 4 * DRAIN_GRACE_SECONDS + 1.0
            while self._connections and loop.time() < deadline:
                await asyncio.sleep(0.02)
            for connection in list(self._connections):
                await self._send_bye(connection)
                await connection.close()
            if self._listener is not None:
                await self._listener.wait_closed()
        finally:
            self._drain_seconds = round(time.perf_counter() - started, 6)
            self.metrics.gauge("server_drain_seconds").set(
                self._drain_seconds)
            self._drained.set()

    def checkpoint_all(self) -> None:
        """Checkpoint every stream of every tenant hub now.

        One failed save does not end the sweep: :meth:`_checkpoint`
        counts it and the other streams still land.
        """
        for tenant, hub in self._hubs.items():
            for stream_id in hub.stream_ids:
                self._checkpoint(tenant, hub, stream_id)

    def _checkpoint(self, tenant: str, hub: StreamHub,
                    stream_id: str) -> None:
        """Checkpoint one stream; every checkpoint the service starts
        (push cadence, disconnect, interval sweep, drain) comes here.

        A failed checkpoint loses durability, not correctness: the
        stream stays live and a later save (or crash recovery from the
        previous generation) covers the gap.  Count it, shout, and go
        on — failing the stream would kill a healthy stream over a
        transient disk hiccup, and failing a sweep or a drain would
        leave the other streams unsaved.
        """
        try:
            hub.checkpoint(stream_id)
        except ReproError as exc:
            self.errors += 1
            self._m_checkpoint_failures.inc()
            logger.warning(
                "checkpoint for %s/%s failed (serving continues, "
                "durability lags one cadence): %s", tenant, stream_id, exc)

    def status(self) -> dict:
        """Operator snapshot: what this server speaks and has served.

        The transport name next to the lifetime frame counters; the
        ``server`` section of :meth:`status_snapshot`.
        """
        return {
            "transport": self._transport_name,
            "connections": len(self._connections),
            "tenants": sorted(self._hubs),
            "frames_in": self.frames_in,
            "pushes": self.pushes,
            "errors": self.errors,
            "draining": self._draining,
            "uptime_seconds": (round(time.time() - self._started_at, 3)
                               if self._started_at is not None else None),
        }

    def status_snapshot(self) -> dict:
        """Full observability snapshot (the STATUS frame payload).

        Three sections, all JSON-safe: ``server`` (:meth:`status` plus
        drain timing), ``tenants`` (per-stream hub stats — including
        ``checkpoint_lag`` / ``us_per_item`` — and the aggregated
        encoding-search telemetry of each tenant's live sessions), and
        ``metrics`` (the registry's counters, gauges with callbacks
        sampled now, and histograms with p50/p95/p99).
        """
        tenants = {}
        for tenant, hub in self._hubs.items():
            tenants[tenant] = {
                "streams": len(hub),
                "stats": hub.stats(),
                "encoding": hub.encoding_summary(),
            }
        return {
            "server": {**self.status(),
                       "drain_seconds": self._drain_seconds},
            "tenants": tenants,
            "metrics": self.metrics.snapshot(),
        }

    async def _status_loop(self) -> None:
        while True:
            await asyncio.sleep(self._status_interval)
            if self._status_sink is None:
                continue
            try:
                self._status_sink(self.status_snapshot())
            except Exception:
                # A broken sink (closed pipe, ...) must not kill serving.
                self.errors += 1

    def recoverable(self) -> "dict[str, list[str]]":
        """Checkpointed stream ids per tenant found under the store root.

        Tenant discovery assumes the directory layout this service
        writes (one subdirectory per tenant); the ids inside each are
        read through the store's own :meth:`ids`, not by re-parsing
        file names here.
        """
        found: "dict[str, list[str]]" = {}
        if self._store_path is None or not self._store_path.is_dir():
            return found
        for entry in sorted(self._store_path.iterdir()):
            if not entry.is_dir() or entry.name == "%meta":
                continue
            ids = DirectoryCheckpointStore(entry).ids()
            if ids:
                found[unquote(entry.name)] = list(ids)
        return found

    @staticmethod
    def _store_stat(hub: StreamHub, name: str) -> int:
        """A durability counter off the hub's store (chaos-unwrapped)."""
        store = hub.store
        store = getattr(store, "inner", store)
        return int(getattr(store, name, 0))

    def hub_for(self, tenant: str) -> StreamHub:
        """The tenant's hub, created (with its stores) on first use.

        The hub itself runs with ``checkpoint_every=0``: the *service*
        owns the cadence so checkpoints land only after a push's result
        has been handed to the transport — never between ingestion and
        delivery, where a crash would strand released outputs.  The
        checkpoint hook persists the replay sidecar immediately before
        every session write (including LRU evictions), so the sidecar
        is never older than the session state it covers.
        """
        hub = self._hubs.get(tenant)
        if hub is None:
            if self._store_path is not None:
                quoted = quote(tenant, safe="")
                store = DirectoryCheckpointStore(self._store_path / quoted)
                # Sidecars live under one reserved directory whose name
                # cannot collide with any quoted tenant: quote() output
                # contains "%" only in valid %XX escapes, never "%m".
                meta = DirectoryCheckpointStore(
                    self._store_path / "%meta" / quoted)
            else:
                store = MemoryCheckpointStore()
                meta = MemoryCheckpointStore()
            if self._fault_injector is not None \
                    and self._fault_injector.plan.store.active():
                from repro.chaos.wrappers import ChaosCheckpointStore
                store = ChaosCheckpointStore(store, self._fault_injector,
                                             site=f"store.{tenant}")
            hub = StreamHub(store=store, checkpoint_every=0,
                            max_live_sessions=self._max_live,
                            checkpoint_hook=lambda stream_id, _t=tenant:
                            self._save_sidecar(_t, stream_id),
                            metrics=self.metrics,
                            metrics_labels={"tenant": tenant})
            self._hubs[tenant] = hub
            self._meta_stores[tenant] = meta
        return hub

    # ------------------------------------------------------------------
    # output replay buffer (exactly-once delivery)
    # ------------------------------------------------------------------
    def _note_ack(self, claim: "tuple[str, str]", delivered: int) -> None:
        """Record the client's delivery watermark; prune covered buffers."""
        acked = max(self._acked.get(claim, 0), int(delivered))
        self._acked[claim] = acked
        buffer = self._outbuf.get(claim)
        while buffer and buffer[0][0] + buffer[0][1].size <= acked:
            buffer.popleft()

    def _buffer_output(self, claim: "tuple[str, str]", start: int,
                       values: np.ndarray) -> None:
        """Retain one result payload until the client acknowledges it."""
        if values.size:
            self._outbuf.setdefault(claim, deque()).append(
                (int(start), values))

    def _replay_slice(self, claim: "tuple[str, str]", delivered: int,
                      items_out: int) -> "np.ndarray | None":
        """Outputs in ``[delivered, items_out)`` from the replay buffer.

        ``None`` when nothing is missing.  A gap — outputs released and
        acknowledged-range pruned, yet not covering the request — means
        exactly-once delivery is impossible; that must fail loudly,
        never resume with silent output loss.
        """
        if delivered >= items_out:
            return None
        pieces = []
        position = delivered
        for start, values in self._outbuf.get(claim, ()):
            end = start + values.size
            if end <= position:
                continue
            if start > position:
                break
            pieces.append(values[position - start:])
            position = end
        if position < items_out:
            raise ReproError(
                f"cannot resume stream {claim[1]!r}: output items "
                f"[{position}, {items_out}) were released but are no "
                "longer in the replay buffer (open the stream fresh "
                "and replay its source instead)"
            )
        replay = np.concatenate(pieces)
        return replay[:items_out - delivered]

    def _save_sidecar(self, tenant: str, stream_id: str) -> None:
        """Persist the stream's replay buffer + key fingerprint.

        Invoked by the hub's checkpoint hook *before* the session state
        is written, so after any crash the durable sidecar covers at
        least every output the durable session state has released.
        """
        claim = (tenant, stream_id)
        entry = {
            "acked": self._acked.get(claim, 0),
            "key_fp": self._key_fps.get(claim),
            "chunks": [[int(start), protocol.encode_array(values)]
                       for start, values in self._outbuf.get(claim, ())],
        }
        self._meta_stores[tenant].save(stream_id, entry)

    def _load_sidecar(self, tenant: str, stream_id: str,
                      fingerprint: str) -> None:
        """Rehydrate the replay buffer after a ``--recover`` restore.

        Verifies the key fingerprint recorded at checkpoint time: a
        resume under a different key would continue the embedding with
        a corrupted watermark and lock the owner out.
        """
        claim = (tenant, stream_id)
        meta = self._meta_stores[tenant]
        if stream_id not in meta:
            return
        entry = meta.load(stream_id)
        recorded = entry.get("key_fp")
        if recorded is not None and recorded != fingerprint:
            raise ReproError(
                f"key mismatch for stream {stream_id!r}; a resumed "
                "stream must re-supply its original key"
            )
        self._acked[claim] = int(entry.get("acked", 0))
        self._outbuf[claim] = deque(
            (int(start), protocol.decode_array(values, source="sidecar"))
            for start, values in entry.get("chunks", ()))

    def _forget_stream(self, claim: "tuple[str, str]") -> None:
        """Drop all service-side state for a finished/dropped stream."""
        self._owners.pop(claim, None)
        self._key_fps.pop(claim, None)
        self._outbuf.pop(claim, None)
        self._acked.pop(claim, None)
        self._push_counts.pop(claim, None)
        meta = self._meta_stores.get(claim[0])
        if meta is not None and claim[1] in meta:
            meta.delete(claim[1])

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self._checkpoint_interval)
            self.checkpoint_all()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self,
                                 channel: TransportConnection) -> None:
        connection = _Connection(channel, self.metrics,
                                 self._transport_name)
        self._connections.add(connection)
        self._m_connections_total.inc()
        try:
            if await self._handshake(connection):
                await self._serve_frames(connection)
        except (ConnectionError, OSError):
            pass
        finally:
            self._release(connection)
            self._connections.discard(connection)
            await connection.close()

    async def _handshake(self, connection: _Connection) -> bool:
        """HELLO exchange: check the version, bind the tenant.

        A peer speaking another protocol version is refused: a
        protocol-1 client's JSON HELLO fails to decode (``protocol``
        error), a binary HELLO with another version gets ``version``.
        """
        try:
            frame = await connection.read()
        except ProtocolError as exc:
            await self._send_error(connection, "protocol", str(exc))
            return False
        if frame is None:
            return False
        if frame["type"] != "hello":
            await self._send_error(
                connection, "protocol",
                f"expected hello, got {frame['type']!r}")
            return False
        if frame["version"] != protocol.PROTOCOL_VERSION:
            await self._send_error(
                connection, "version",
                f"server speaks protocol {protocol.PROTOCOL_VERSION}, "
                f"client sent {frame['version']}")
            return False
        connection.tenant = frame.get("tenant", "default")
        try:
            connection.hub = self.hub_for(connection.tenant)
        except ReproError as exc:
            # The tenant's stores cannot open (a file where its
            # directory belongs, ...): say so, do not just hang up.
            self.errors += 1
            await self._send_error(connection, _error_code(exc), str(exc))
            return False
        from repro import __version__
        await connection.send({"type": "hello",
                               "version": protocol.PROTOCOL_VERSION,
                               "server": f"repro/{__version__}",
                               "credits": self._credits})
        return True

    async def _next_frame(self, connection: _Connection) -> "dict | None":
        """The next frame, or ``None`` once the conversation is over:
        the peer closed, or the server is draining and no frame arrived
        within the grace window (the BYE is sent here).

        The handler awaits the read itself: no task, future or wait per
        frame.  While the server drains, the read runs under a grace
        timer (:meth:`_Connection.arm_grace`), so a request already on
        the wire (STATUS during SIGTERM) is still served before the
        goodbye.
        """
        if self._draining:
            connection.arm_grace()
        connection.waiting = True
        try:
            return await connection.read()
        except asyncio.CancelledError:
            if not connection.grace_over:
                raise
            # The cancel was the grace timer's: take it back so later
            # awaits in this task run normally, unless a shutdown asked
            # for one too (Python 3.11+ counts the requests).
            uncancel = getattr(connection.task, "uncancel", None)
            if uncancel is not None and uncancel():
                raise
        finally:
            connection.waiting = False
            if connection.grace is not None:
                connection.grace.cancel()
                connection.grace = None
        await self._send_bye(connection)
        return None

    async def _serve_frames(self, connection: _Connection) -> None:
        handlers = {"open": self._on_open, "push": self._on_push,
                    "flush": self._on_flush, "status": self._on_status}
        grace_frames = 0
        while True:
            try:
                frame = await self._next_frame(connection)
            except ProtocolError as exc:
                self.errors += 1
                await self._send_error(connection, "protocol", str(exc))
                return
            if frame is None:
                return
            if self._draining:
                grace_frames += 1
                if grace_frames > DRAIN_GRACE_FRAMES:
                    await self._send_bye(connection)
                    return
            self.frames_in += 1
            frame_type = frame["type"]
            if frame_type == "bye":
                self._release(connection)
                await connection.send({"type": "bye"})
                return
            handler = handlers.get(frame_type)
            if handler is None:
                self.errors += 1
                await self._send_error(
                    connection, "protocol",
                    f"clients do not send {frame_type!r} frames")
                return
            try:
                await handler(connection, frame)
            except ProtocolError as exc:
                self.errors += 1
                await self._send_error(connection, "protocol", str(exc),
                                       stream_id=frame.get("stream_id"))
                return
            except ReproError as exc:
                # Semantic failure (unknown stream, bad params, finished
                # session, ...): report and keep the connection.
                self.errors += 1
                await self._send_error(connection, _error_code(exc),
                                       str(exc),
                                       stream_id=frame.get("stream_id"))

    async def _send_bye(self, connection: _Connection) -> None:
        """Best-effort goodbye carrying the drain reason."""
        try:
            await connection.send({"type": "bye",
                                   "reason": self._drain_reason})
        except (ConnectionError, OSError, ProtocolError):
            pass

    async def _send_error(self, connection: _Connection, code: str,
                          message: str,
                          stream_id: "str | None" = None) -> None:
        frame = {"type": "error", "code": code, "message": message}
        if stream_id:
            frame["stream_id"] = stream_id
        try:
            await connection.send(frame)
        except (ConnectionError, OSError):
            pass

    def _release(self, connection: _Connection) -> None:
        """Detach the connection's streams, checkpointing live ones."""
        for (tenant, stream_id), owner in list(self._owners.items()):
            if owner is not connection:
                continue
            del self._owners[(tenant, stream_id)]
            hub = self._hubs.get(tenant)
            if hub is not None and stream_id in hub \
                    and not hub.stats(stream_id)["finished"]:
                self._checkpoint(tenant, hub, stream_id)

    # ------------------------------------------------------------------
    # frame handlers
    # ------------------------------------------------------------------
    async def _on_open(self, connection: _Connection, frame: dict) -> None:
        hub, tenant = connection.hub, connection.tenant
        stream_id = frame["stream_id"]
        claim = (tenant, stream_id)
        owner = self._owners.get(claim)
        if owner is not None and owner is not connection:
            raise ReproError(
                f"stream {stream_id!r} is already open on another "
                "connection"
            )
        key = protocol.decode_key(frame["key"], source="open")
        fingerprint = _key_fingerprint(tenant, stream_id, key)
        resume = bool(frame.get("resume", False))
        delivered = int(frame.get("delivered", 0))
        known = self._key_fps.get(claim)
        if stream_id in hub:
            if not resume:
                raise ReproError(
                    f"stream {stream_id!r} already exists; reconnects "
                    "must open with resume=true"
                )
            if known is not None and known != fingerprint:
                raise ReproError(
                    f"key mismatch for stream {stream_id!r}; a resumed "
                    "stream must re-supply its original key"
                )
        elif resume and stream_id in hub.store:
            # Fingerprint check precedes the restore so a wrong key
            # cannot even build the session.
            self._load_sidecar(tenant, stream_id, fingerprint)
            hub.restore(stream_id, key)
        else:
            # Fresh registration — also the resume fallback when the
            # server lost everything before the first checkpoint (the
            # client then replays from item 0).  Any stale sidecar or
            # buffer under this id belongs to a previous life.
            self._forget_stream(claim)
            self._register(hub, stream_id, key, frame)
        self._owners[claim] = connection
        self._key_fps[claim] = fingerprint
        connection.credits[stream_id] = self._credits
        offsets = hub.offsets(stream_id)
        self._note_ack(claim, delivered)
        result = {"type": "result", "op": "open", "stream_id": stream_id,
                  "items_in": offsets["items_in"],
                  "items_out": offsets["items_out"],
                  "finished": offsets["finished"]}
        # Outputs released but never acknowledged are redelivered here;
        # the client deduplicates against its own delivery counter.
        replay = self._replay_slice(claim, delivered,
                                    offsets["items_out"])
        if replay is not None and replay.size:
            result["values"] = replay
        await connection.send(result)
        await connection.send({"type": "credit", "stream_id": stream_id,
                               "credits": self._credits})

    def _register(self, hub: StreamHub, stream_id: str, key: bytes,
                  frame: dict) -> None:
        params = WatermarkParams()
        if frame.get("params"):
            params = params_from_dict(frame["params"])
        kwargs = {
            "params": params,
            "encoding": frame.get("encoding", "multihash"),
            "encoding_options": frame.get("encoding_options") or {},
            "require_labels": bool(frame.get("require_labels", True)),
        }
        kind = frame["kind"]
        if kind == "protection":
            if "watermark" not in frame:
                raise ProtocolError(
                    "open(kind=protection) requires a watermark field")
            hub.protect(stream_id, frame["watermark"], key, **kwargs)
        elif kind == "detection":
            if "wm_length" not in frame:
                raise ProtocolError(
                    "open(kind=detection) requires a wm_length field")
            hub.detect(stream_id, int(frame["wm_length"]), key,
                       transform_degree=float(
                           frame.get("transform_degree", 1.0)),
                       **kwargs)
        else:
            raise ProtocolError(
                f"open kind must be 'protection' or 'detection', "
                f"got {kind!r}"
            )

    async def _on_status(self, connection: _Connection,
                         frame: dict) -> None:
        """Answer a STATUS request with the full snapshot payload."""
        await connection.send({"type": "status",
                               "payload": self.status_snapshot()})

    async def _on_push(self, connection: _Connection, frame: dict) -> None:
        stream_id = frame["stream_id"]
        self._check_owned(connection, stream_id)
        if connection.credits.get(stream_id, 0) <= 0:
            # Flow-control violation: the frame is dropped, not queued.
            # (On this serial handler the TCP receive queue is the
            # physical backpressure; the counter is defense in depth for
            # concurrent handler variants.)
            self.errors += 1
            self._m_credit_stalls.inc()
            await self._send_error(
                connection, "flow",
                f"no push credits left for stream {stream_id!r}; wait "
                "for a credit frame", stream_id=stream_id)
            return
        hub = connection.hub
        claim = (connection.tenant, stream_id)
        self._note_ack(claim, int(frame.get("delivered", 0)))
        values = frame["values"]
        connection.credits[stream_id] -= 1
        if self._fault_injector is not None:
            # Chaos crash gates: the plan may kill the process here
            # (before ingestion), after ingestion, or after delivery —
            # the three windows with distinct recovery obligations.
            self._fault_injector.crash_gate("pre-ingest")
        outs = []
        try:
            # One hub push per scanner sub-batch, the loop yielded in
            # between ("sliced pushes" above).  An empty push is still
            # one hub push (a finished stream refuses it).
            batch = hub.scan_batch(stream_id)
            for start in range(0, max(values.size, 1), batch):
                if start:
                    await asyncio.sleep(0)
                    if connection.channel.peer_gone:
                        # End as any lost connection does: the release
                        # checkpoints what was ingested, and the
                        # client's resume replays the rest.
                        raise ConnectionResetError(
                            f"{connection.name} hung up mid-push")
                out = hub.push(stream_id, values[start:start + batch])
                offsets = hub.offsets(stream_id)
                # Buffer before yielding or sending: a checkpoint taken
                # meanwhile (drain, sweep, eviction, release) persists
                # these outputs for redelivery.
                self._buffer_output(claim, offsets["items_out"] - out.size,
                                    out)
                outs.append(out)
        except ReproError:
            # A semantically failed push (finished session, quality
            # rollback, ...) must still hand its credit back, or the
            # window shrinks permanently and the stream deadlocks.
            connection.credits[stream_id] += 1
            await connection.send({"type": "credit",
                                   "stream_id": stream_id, "credits": 1})
            raise
        self.pushes += 1
        if self._fault_injector is not None:
            self._fault_injector.crash_gate("post-ingest")
        result = {"type": "result", "op": "push",
                  "stream_id": stream_id, "seq": frame["seq"],
                  "values": (outs[0] if len(outs) == 1
                             else np.concatenate(outs)),
                  "items_in": offsets["items_in"],
                  "items_out": offsets["items_out"]}
        connection.credits[stream_id] += 1
        # One transport batch: the client wakes once per push for the
        # RESULT+CREDIT pair instead of twice (same frames either way).
        await connection.send_many([result, {"type": "credit",
                                             "stream_id": stream_id,
                                             "credits": 1}])
        if self._fault_injector is not None:
            self._fault_injector.crash_gate("post-delivery")
        # The service owns the checkpoint cadence, *after* the result
        # reached the transport — a checkpoint between ingestion and
        # delivery would strand the released outputs on a crash.
        self._push_counts[claim] = self._push_counts.get(claim, 0) + 1
        if self._checkpoint_every \
                and self._push_counts[claim] % self._checkpoint_every == 0:
            self._checkpoint(connection.tenant, hub, stream_id)

    async def _on_flush(self, connection: _Connection, frame: dict) -> None:
        hub = connection.hub
        stream_id = frame["stream_id"]
        self._check_owned(connection, stream_id)
        claim = (connection.tenant, stream_id)
        self._note_ack(claim, int(frame.get("delivered", 0)))
        stats = hub.stats(stream_id)
        result = {"type": "result", "op": "flush", "stream_id": stream_id,
                  "finished": True}
        if stats["finished"]:
            # Redelivery of a flush whose result was lost: the tail sits
            # in the replay buffer; the resume-time open re-sent it.
            tail = np.empty(0, dtype=np.float64)
        else:
            tail = hub.finish(stream_id)
        result["values"] = tail
        if stats["kind"] == "detection":
            result["detection"] = _detection_payload(hub.result(stream_id))
        offsets = hub.offsets(stream_id)
        result["items_in"] = offsets["items_in"]
        result["items_out"] = offsets["items_out"]
        self._buffer_output(claim, offsets["items_out"] - tail.size, tail)
        await connection.send(result)
        # The stream is complete and its result delivered: evict it and
        # its checkpoint + sidecar so a long-lived server does not leak.
        hub.drop(stream_id)
        self._forget_stream(claim)
        connection.credits.pop(stream_id, None)

    def _check_owned(self, connection: _Connection, stream_id: str) -> None:
        claim = (connection.tenant, stream_id)
        if self._owners.get(claim) is not connection:
            raise ReproError(
                f"stream {stream_id!r} is not open on this connection; "
                "send an open frame first"
            )


def _detection_payload(result) -> dict:
    """JSON evidence snapshot of a :class:`DetectionResult`.

    Carries the raw voting buckets (not just derived verdicts), so the
    client SDK reconstructs a full :class:`DetectionResult` and remote
    callers keep the exact in-process evidence API.
    """
    return {
        "wm_length": result.wm_length,
        "buckets_true": [int(v) for v in result.buckets_true],
        "buckets_false": [int(v) for v in result.buckets_false],
        "abstentions": int(result.abstentions),
        "vote_threshold": int(result.vote_threshold),
        "counters": result.counters.to_dict(),
        "bias": [int(result.bias(i)) for i in range(result.wm_length)],
        "estimate": [None if bit is None else bool(bit)
                     for bit in result.wm_estimate()],
    }


def _error_code(exc: ReproError) -> str:
    """Stable machine-readable code for a server-side failure class."""
    name = type(exc).__name__
    return {
        "HubError": "unknown-stream",
        "SessionStateError": "bad-checkpoint",
        "CheckpointStoreError": "store",
        "ParameterError": "bad-params",
    }.get(name, "error")

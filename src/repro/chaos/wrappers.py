"""Chaos wrappers: fault-injecting Transport, Channel and CheckpointStore.

Each wrapper delegates to a real component and consults a
:class:`~repro.chaos.plan.FaultInjector` before (or instead of) every
operation.  The wrapped component is untouched — chaos is a layer, not
a fork — so every transport and every checkpoint store can run under
fault injection:

* :class:`ChaosChannel` / :class:`ChaosTransport` — per-message latency,
  stalls, drops, mid-frame truncation (a *valid* transport message
  carrying a prefix of the frame body, the way a torn TCP stream would
  arrive, on every transport), and hard resets.
* :class:`ChaosCheckpointStore` — torn writes (a prefix of the entry is
  durably stored, then the save fails), transient EIO, and stale reads
  (the previous entry is served instead of the latest).

Both ends of the serving stack take one injector:
``StreamService(fault_injector=...)`` wraps its listener and stores,
``AsyncRemoteClient(fault_injector=...)`` its dials.
"""

from __future__ import annotations

import asyncio

from repro.chaos.plan import FaultInjector, StoreFaults, TransportFaults
from repro.errors import CheckpointStoreError
from repro.server.transports import Listener, Transport, TransportConnection
from repro.stores import CheckpointStore


class ChaosChannel(TransportConnection):
    """A transport connection that misbehaves per the fault plan.

    Terminal faults surface as :class:`ConnectionResetError` after
    aborting the inner channel — exactly what a genuine peer crash
    looks like to the protocol layer, so recovery code cannot tell
    injected failures from real ones (that is the point).
    """

    def __init__(self, inner: TransportConnection, injector: FaultInjector,
                 faults: TransportFaults, site: str) -> None:
        self._inner = inner
        self._injector = injector
        self._faults = faults
        self._site = site
        self.peer = inner.peer
        #: Injected delays in progress; :meth:`abort` wakes them.
        self._sleepers: "set[asyncio.Future]" = set()
        self._aborted = False

    @property
    def peer_gone(self) -> bool:
        """Gone once an injected fault aborted this channel, or once the
        inner channel has seen the peer hang up."""
        return self._aborted or self._inner.peer_gone

    async def _sleep(self, seconds: float) -> None:
        """Sleep out an injected delay, unless the channel is aborted.

        One future and one loop timer per delay, no task.  An abort —
        the client's op timeout, or an injected reset on the other
        direction — wakes the sleeper at once, and the message fails
        as the inner channel's would.
        """
        if not self._aborted:
            loop = asyncio.get_running_loop()
            waiter = loop.create_future()
            timer = loop.call_later(seconds, _wake, waiter)
            self._sleepers.add(waiter)
            try:
                await waiter
            finally:
                timer.cancel()
                self._sleepers.discard(waiter)
        if self._aborted:
            raise ConnectionResetError(
                f"chaos: channel aborted during an injected delay "
                f"({self._site})")

    async def _apply(self, decision: "dict | None", direction: str,
                     body: "bytes | None" = None) -> "dict | None":
        """Sleep for latency/stall decisions; raise for resets.

        Returns the decision when the caller must keep handling it
        (drop, truncate), ``None`` when the message may proceed.
        """
        if decision is None:
            return None
        fault = decision["fault"]
        if decision.get("delay"):
            await self._sleep(decision["delay"])
        if fault == "latency":
            self._injector.record(self._site, "latency",
                                  direction=direction,
                                  delay=round(decision["delay"], 6))
            return None
        if fault == "stall":
            self._injector.record(self._site, "stall", direction=direction,
                                  seconds=decision["stall"])
            await self._sleep(decision["stall"])
            return None
        if fault == "reset":
            self._injector.record(self._site, "reset", direction=direction)
            self.abort()
            raise ConnectionResetError(
                f"chaos: injected reset ({direction}, {self._site})")
        return decision

    async def read_message(self) -> "bytes | None":
        """Read one message, subject to injected read-side faults."""
        decision = self._injector.message_fault(
            self._site + ".read", self._faults)
        decision = await self._apply(decision, "read")
        if decision is not None and decision["fault"] == "drop":
            # Reading "nothing" forever is indistinguishable from a
            # stalled peer; model a read-side drop as a reset instead
            # so the failure is prompt and recoverable.
            self._injector.record(self._site, "reset", direction="read",
                                  via="drop")
            self.abort()
            raise ConnectionResetError(
                f"chaos: injected read failure ({self._site})")
        return await self._inner.read_message()

    async def write_message(self, body: bytes) -> None:
        """Send one message, subject to injected write-side faults."""
        decision = self._injector.message_fault(
            self._site + ".write", self._faults)
        decision = await self._apply(decision, "write", body)
        if decision is None:
            await self._inner.write_message(body)
            return
        fault = decision["fault"]
        if fault == "drop":
            self._injector.record(self._site, "drop", direction="write",
                                  bytes=len(body))
            return
        if fault == "truncate":
            keep = max(1, min(len(body) - 1,
                              int(len(body) * decision["keep_fraction"])))
            self._injector.record(self._site, "truncate", direction="write",
                                  bytes=len(body), kept=keep)
            try:
                # A complete transport message carrying a torn frame
                # body, mimicking a crash mid-frame regardless of the
                # underlying framing.  The peer's codec rejects most
                # cuts; a cut inside the payload on an 8-byte boundary
                # still decodes, with fewer values, and is caught by
                # the client's RESULT position check instead.
                await self._inner.write_message(body[:keep])
            finally:
                self.abort()
            raise ConnectionResetError(
                f"chaos: injected mid-frame truncation ({self._site})")
        await self._inner.write_message(body)  # pragma: no cover

    async def write_messages(self, bodies: "list[bytes]") -> None:
        """Send several messages, each drawing its own fault decision."""
        for body in bodies:
            await self.write_message(body)

    async def close(self) -> None:
        """Close the inner channel."""
        await self._inner.close()

    def abort(self) -> None:
        """Abort the inner channel, cutting any injected delay short."""
        self._aborted = True
        for waiter in self._sleepers:
            _wake(waiter)
        self._inner.abort()


def _wake(waiter: "asyncio.Future") -> None:
    if not waiter.done():
        waiter.set_result(None)


class ChaosTransport(Transport):
    """A transport that wraps another one with fault injection.

    ``side`` picks the plan's fault set: ``"server"`` wraps a listener
    (:class:`~repro.server.service.StreamService`'s ``fault_injector``),
    ``"client"`` wraps dials (:class:`~repro.server.client.
    AsyncRemoteClient`'s ``fault_injector``).
    """

    def __init__(self, inner: Transport, injector: FaultInjector,
                 side: str = "client") -> None:
        self._inner = inner
        self._injector = injector
        self._side = side
        self._faults = (injector.plan.server_transport if side == "server"
                        else injector.plan.client_transport)

    async def serve(self, host: str, port: int, handler) -> Listener:
        """Serve via the inner transport, wrapping accepted channels."""
        async def chaotic_handler(connection: TransportConnection):
            await handler(ChaosChannel(connection, self._injector,
                                       self._faults,
                                       site=f"{self._side}.transport"))

        return await self._inner.serve(host, port, chaotic_handler)

    async def connect(self, host: str, port: int) -> TransportConnection:
        """Dial via the inner transport (dials themselves may fail)."""
        site = f"{self._side}.transport"
        if self._injector.connect_fault(site + ".connect", self._faults):
            self._injector.record(site, "connect-fail", host=host,
                                  port=port)
            raise ConnectionRefusedError(
                f"chaos: injected dial failure to {host}:{port}")
        connection = await self._inner.connect(host, port)
        return ChaosChannel(connection, self._injector, self._faults,
                            site=site)


class ChaosCheckpointStore(CheckpointStore):
    """A checkpoint store wrapper that injects storage failures.

    Envelope-level reads (``entry``/``load``/sequence numbering) are
    delegated to the inner store so its own recovery semantics — e.g.
    :class:`~repro.stores.DirectoryCheckpointStore` generation fallback
    — stay in force under injection; faults enter at the write path
    (torn writes, transient EIO) and at ``entry`` (stale reads).
    """

    def __init__(self, inner: CheckpointStore, injector: FaultInjector,
                 site: str = "store") -> None:
        self._inner = inner
        self._injector = injector
        self._site = site
        self._faults: StoreFaults = injector.plan.store
        #: Previous entry text per stream, served on stale reads.
        self._shadow: "dict[str, str]" = {}

    @property
    def inner(self) -> CheckpointStore:
        """The wrapped store."""
        return self._inner

    # -- faulty primitives ----------------------------------------------
    def _put(self, stream_id: str, text: str) -> None:
        decision = self._injector.store_write_fault(
            self._site + ".put", self._faults)
        if decision is not None:
            if decision["fault"] == "io-error":
                self._injector.record(self._site, "io-error",
                                      stream=stream_id)
                raise CheckpointStoreError(
                    f"chaos: transient I/O error writing checkpoint "
                    f"for {stream_id!r}")
            keep = max(1, min(len(text) - 1,
                              int(len(text) * decision["keep_fraction"])))
            self._injector.record(self._site, "torn-write",
                                  stream=stream_id, bytes=len(text),
                                  kept=keep)
            # The torn prefix lands durably (the inner write is atomic,
            # but atomically writes garbage) and the save still reports
            # failure — the worst honest outcome of a crash mid-write.
            self._inner._put(stream_id, text[:keep])
            raise CheckpointStoreError(
                f"chaos: torn write for checkpoint {stream_id!r} "
                f"({keep}/{len(text)} bytes persisted)")
        if self._faults.stale_read_rate > 0.0:
            # Only a plan that can serve a stale read needs the shadow.
            previous = self._inner._get(stream_id)
            if previous is not None:
                self._shadow[stream_id] = previous
        self._inner._put(stream_id, text)

    def _get(self, stream_id: str) -> "str | None":
        return self._inner._get(stream_id)

    def _discard(self, stream_id: str) -> bool:
        self._shadow.pop(stream_id, None)
        return self._inner._discard(stream_id)

    def _ids(self) -> "list[str]":
        return self._inner._ids()

    # -- envelope ops delegated for inner-store semantics ----------------
    def entry(self, stream_id: str) -> dict:
        """Inner entry lookup, possibly served stale per the plan."""
        decision = self._injector.store_read_fault(
            self._site + ".get", self._faults)
        stale = self._shadow.get(stream_id)
        if decision is not None and stale is not None:
            self._injector.record(self._site, "stale-read",
                                  stream=stream_id)
            return self._decode(stale, stream_id)
        return self._inner.entry(stream_id)

    def _current_sequence(self, stream_id: str) -> int:
        # Sequence numbering must see the inner store's own view
        # (including any generation fallback), never the stale shadow.
        return self._inner._current_sequence(stream_id)

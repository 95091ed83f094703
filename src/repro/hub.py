"""Multi-tenant streaming hub: many keyed sessions behind one router.

The paper's watermarking model is per-stream; a production deployment
serves *fleets* — thousands of independently-keyed sensor streams
multiplexed over one ingest path.  :class:`StreamHub` is that
multiplexer:

* **routing** — named :class:`~repro.pipeline.ProtectionSession` /
  :class:`~repro.pipeline.DetectionSession` instances, each with its own
  secret key; interleaved batched pushes are routed by stream id through
  the same vectorized ``push_chunk`` scan path a single session uses, so
  per-item cost stays within a small factor of one session (at most
  1.5x over 1,000 streams:
  ``benchmarks/test_throughput.py::test_hub_overhead_at_1000_streams``);
* **durability** — sessions checkpoint through any
  :class:`~repro.stores.CheckpointStore` (pluggable: in-memory,
  atomic-write directory, ...), on a configurable cadence
  (``checkpoint_every`` pushes per stream) and on demand
  (:meth:`checkpoint` / :meth:`checkpoint_all`); the secret keys are
  held only in process memory and are **never** persisted;
* **crash recovery** — :meth:`StreamHub.recover` reconstructs every
  session *bit-identically* from its latest durable checkpoint
  (property-tested at hub level); per-stream ``items_in`` tells the
  caller the replay offset for data pushed after the last checkpoint;
* **bounded residency** — with ``max_live_sessions`` set, the least
  recently used sessions are checkpointed to the store and evicted from
  memory; they are reloaded transparently on their next push, so a hub
  can juggle far more streams than fit in RAM;
* **observability** — :meth:`stats` exposes per-stream counters
  (pushes, items in/out, checkpoints, evictions, restores).

Quickstart::

    store = DirectoryCheckpointStore("/var/lib/repro/fleet")
    hub = StreamHub(store=store, checkpoint_every=4)
    hub.protect("sensor-1", "(c) DataCorp", key=b"k-sensor-1")
    hub.protect("sensor-2", "(c) DataCorp", key=b"k-sensor-2")
    for stream_id, chunk in ingest():
        forward(stream_id, hub.push(stream_id, chunk))
    # ... worker crashes; a fresh worker recovers the fleet:
    hub = StreamHub.recover(store, keys={"sensor-1": b"k-sensor-1",
                                         "sensor-2": b"k-sensor-2"})
"""

from __future__ import annotations

import difflib
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.errors import (
    CheckpointStoreError,
    HubError,
    ParameterError,
    SessionStateError,
)
from repro.obs import LATENCY_US_BUCKETS, NULL_REGISTRY
from repro.pipeline import (
    DetectionSession,
    ProtectionSession,
    session_from_state,
)
from repro.stores import CheckpointStore, MemoryCheckpointStore


@dataclass
class StreamStats:
    """Per-stream bookkeeping of one hub (counts are per hub lifetime).

    ``items_in`` equals the session's total ingested items — after a
    :meth:`StreamHub.recover` it is seeded from the checkpoint, so it is
    also the replay offset for re-feeding source data.  ``items_out``
    counts released (window-delayed) output items.  ``live`` is whether
    the session currently resides in memory (``False`` after LRU
    eviction to the store).  ``pushes`` counts :meth:`StreamHub.push`
    calls: the network server makes one per scanner sub-batch of a PUSH
    frame, so behind ``repro serve`` it counts slices, not frames.
    """

    stream_id: str
    kind: str
    pushes: int = 0
    items_in: int = 0
    items_out: int = 0
    checkpoints: int = 0
    evictions: int = 0
    restores: int = 0
    live: bool = True
    finished: bool = False
    #: ``items_in`` at the moment of the last checkpoint write — the
    #: anchor for ``checkpoint_lag`` (items at risk on a crash).  Seeded
    #: to ``items_in`` on adopt/recover, so a just-restored stream
    #: reports zero lag.
    items_at_checkpoint: int = 0
    #: Wall-clock time of the last checkpoint write (``time.time()``),
    #: or ``None`` if this hub has not checkpointed the stream yet.
    last_checkpoint_ts: "float | None" = None
    #: Cumulative seconds spent inside ``session.feed``/``finish`` for
    #: this stream (process wall time) — the numerator of ``us_per_item``.
    busy_seconds: float = 0.0
    first_push_ts: "float | None" = None
    last_push_ts: "float | None" = None

    def to_dict(self) -> dict:
        """Plain-dict snapshot (JSON-compatible, for logs and the CLI).

        Adds derived fields on top of the raw counters:
        ``checkpoint_lag`` (items ingested since the last checkpoint),
        ``us_per_item`` (mean in-hub processing cost) and
        ``items_per_s`` (ingest rate over the first→last push window;
        ``None`` until two pushes have landed).
        """
        out = asdict(self)
        out["checkpoint_lag"] = self.items_in - self.items_at_checkpoint
        out["busy_seconds"] = round(self.busy_seconds, 6)
        out["us_per_item"] = (
            round(1e6 * self.busy_seconds / self.items_in, 4)
            if self.items_in and self.busy_seconds else None)
        wall = ((self.last_push_ts - self.first_push_ts)
                if self.first_push_ts is not None
                and self.last_push_ts is not None else 0.0)
        out["items_per_s"] = (round(self.items_in / wall, 2)
                              if wall > 0 else None)
        return out


def _kind_of(session) -> str:
    return ("protection" if isinstance(session, ProtectionSession)
            else "detection")


#: Checkpoint ``kind`` tag -> the short stats kind name.
_STATE_KIND_NAMES = {"protection-session": "protection",
                     "detection-session": "detection"}


class StreamHub:
    """Router, checkpointer and lifecycle manager for many sessions.

    Parameters
    ----------
    store:
        The :class:`~repro.stores.CheckpointStore` that receives
        checkpoints (cadence, eviction, explicit).  Defaults to a
        private :class:`~repro.stores.MemoryCheckpointStore`, which
        supports LRU eviction but is not durable — pass a directory (or
        other durable) store to survive crashes.
    checkpoint_every:
        Auto-checkpoint a stream after every N pushes to it (and at
        :meth:`finish`).  0 disables automatic checkpoints; explicit
        :meth:`checkpoint` calls and eviction still write.
    max_live_sessions:
        Upper bound on sessions resident in memory; beyond it the least
        recently pushed streams are checkpointed and evicted.  ``None``
        keeps everything live.
    checkpoint_hook:
        Optional callable invoked with the stream id immediately
        *before* every checkpoint write (cadence, eviction, explicit),
        so companion state can be persisted no later than the session
        state it describes (used by the network server's output-replay
        sidecar).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`.  When given (and
        enabled) the hub feeds per-hub counters, a per-push latency
        histogram and snapshot-time callback gauges into it; when
        omitted the shared disabled registry is used and the hot path
        costs only a few no-op calls.  An enabled registry costs at
        most 5% µs/item on the ``initial`` encoding push path
        (``benchmarks/test_throughput.py::test_enabled_metrics_overhead``).
    metrics_labels:
        Labels attached to every instrument this hub registers
        (e.g. ``{"tenant": "acme"}``), so many hubs can share one
        registry without colliding.
    """

    def __init__(self, *, store: "CheckpointStore | None" = None,
                 checkpoint_every: int = 0,
                 max_live_sessions: "int | None" = None,
                 checkpoint_hook: "Callable[[str], None] | None" = None,
                 metrics=None,
                 metrics_labels: "dict | None" = None) -> None:
        if checkpoint_every < 0:
            raise ParameterError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if max_live_sessions is not None and max_live_sessions < 1:
            raise ParameterError(
                f"max_live_sessions must be >= 1, got {max_live_sessions}"
            )
        if store is not None and not isinstance(store, CheckpointStore):
            raise ParameterError(
                f"store must be a CheckpointStore, got "
                f"{type(store).__name__}"
            )
        self._store = store if store is not None else MemoryCheckpointStore()
        self._checkpoint_every = int(checkpoint_every)
        self._max_live = max_live_sessions
        #: Called with the stream id immediately *before* every
        #: checkpoint write (cadence, eviction, explicit), so a caller
        #: persisting companion state (e.g. the network server's
        #: output-replay sidecar) can guarantee it is never older than
        #: the session state it accompanies.
        self._checkpoint_hook = checkpoint_hook
        #: Live sessions in LRU order (least recently used first).
        self._sessions: "OrderedDict[str, object]" = OrderedDict()
        self._keys: "dict[str, object]" = {}
        self._stats: "dict[str, StreamStats]" = {}
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        labels = dict(metrics_labels or {})
        m = self._metrics
        self._m_pushes = m.counter("hub_pushes_total", **labels)
        self._m_items_in = m.counter("hub_items_in_total", **labels)
        self._m_items_out = m.counter("hub_items_out_total", **labels)
        self._m_checkpoints = m.counter("hub_checkpoints_total", **labels)
        self._m_evictions = m.counter("hub_evictions_total", **labels)
        self._m_restores = m.counter("hub_restores_total", **labels)
        self._m_push_us = m.histogram("hub_push_us",
                                      buckets=LATENCY_US_BUCKETS, **labels)
        m.gauge_callback("hub_streams", lambda: len(self._stats), **labels)
        m.gauge_callback("hub_live_sessions",
                         lambda: len(self._sessions), **labels)
        m.gauge_callback(
            "hub_checkpoint_lag_items",
            lambda: sum(st.items_in - st.items_at_checkpoint
                        for st in self._stats.values()), **labels)
        m.gauge_callback(
            "hub_search_iterations_total",
            lambda: self.encoding_summary()["search_iterations"], **labels)
        m.gauge_callback(
            "hub_pattern_memo_hit_rate",
            lambda: self.encoding_summary()["pattern_memo_hit_rate"],
            **labels)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def protect(self, stream_id: str, watermark, key,
                **session_kwargs) -> None:
        """Register a new embedding stream under its own secret key.

        ``session_kwargs`` are forwarded to
        :class:`~repro.pipeline.ProtectionSession` (``params``,
        ``encoding``, ...).  The encoding must be a *name* for the
        stream to be checkpointable.
        """
        self._adopt(stream_id,
                    ProtectionSession(watermark, key, **session_kwargs),
                    key)

    def detect(self, stream_id: str, wm_length, key,
               **session_kwargs) -> None:
        """Register a new detection stream under its own secret key."""
        self._adopt(stream_id,
                    DetectionSession(wm_length, key, **session_kwargs),
                    key)

    @staticmethod
    def detect_batch(jobs, workers: "int | None" = None) -> list:
        """Screen a batch of suspect streams, optionally in parallel.

        ``jobs`` is a list of :class:`repro.core.parallel_detect.
        DetectionTask` or of tuples ``(values, wm_length, key)`` /
        ``(values, wm_length, key, kwargs)`` — the rights holder's
        key-ring sweep: every (stream, key) pair gets its own result,
        in job order, but jobs that differ only in their key share one
        scan of the stream.  With ``workers`` > 1 the calling process
        scans a ring's stream once and votes one slice of what the scan
        recorded, while a fresh pool of at most ``workers - 1``
        processes votes the other slices; distinct streams are split
        between the caller and the pool (see
        :func:`repro.core.parallel_detect.run_tasks`).  This is offline
        whole-stream screening and touches no hub session state, hence
        a staticmethod on the hub only as the natural batch entry
        point.
        """
        from repro.core.parallel_detect import DetectionTask, run_tasks

        tasks = []
        for job in jobs:
            if isinstance(job, DetectionTask):
                tasks.append(job)
            else:
                values, wm_length, key = job[0], job[1], job[2]
                kwargs = dict(job[3]) if len(job) > 3 else {}
                tasks.append(DetectionTask(values=values,
                                           wm_length=wm_length,
                                           key=key, **kwargs))
        return run_tasks(tasks, workers=workers)

    def _check_new_id(self, stream_id: str) -> None:
        if not isinstance(stream_id, str) or not stream_id:
            raise HubError(
                f"stream id must be a non-empty string, got {stream_id!r}"
            )
        if stream_id in self._stats:
            raise HubError(
                f"stream id {stream_id!r} is already registered; "
                "hub stream ids are unique"
            )

    def _adopt(self, stream_id: str, session, key) -> None:
        self._check_new_id(stream_id)
        self._sessions[stream_id] = session
        self._keys[stream_id] = key
        self._stats[stream_id] = StreamStats(
            stream_id=stream_id, kind=_kind_of(session),
            items_in=session.items_ingested,
            items_at_checkpoint=session.items_ingested,
            finished=getattr(session, "_finished", False))
        self._shrink(exclude=stream_id)

    def _adopt_cold(self, stream_id: str, key, state: dict) -> None:
        """Register a checkpointed stream without deserializing it.

        The session stays in the store (``live=False``) and is restored
        lazily on its first push — so a bounded-residency recovery does
        not thrash every checkpoint through memory and back.  Only the
        envelope-level facts (kind, ingest offset, finished) are read.
        """
        self._check_new_id(stream_id)
        kind = _STATE_KIND_NAMES.get(state.get("kind")
                                     if isinstance(state, dict) else None)
        if kind is None:
            raise SessionStateError(
                f"checkpoint for stream {stream_id!r} has unknown "
                f"session kind "
                f"{state.get('kind') if isinstance(state, dict) else state!r}"
            )
        counters = (state.get("scan") or {}).get("counters") or {}
        self._keys[stream_id] = key
        self._stats[stream_id] = StreamStats(
            stream_id=stream_id, kind=kind,
            items_in=int(counters.get("items", 0)),
            items_at_checkpoint=int(counters.get("items", 0)), live=False,
            finished=bool(state.get("finished", False)))

    def restore(self, stream_id: str, key) -> None:
        """Adopt one checkpointed stream from the store into this hub.

        The per-stream counterpart of :meth:`recover`: a hub that was
        started empty against an existing store (e.g. a network server
        booted with ``--recover``) re-admits streams lazily, as each
        client reconnects and re-supplies its key.  The restored session
        continues bit-identically from its latest durable checkpoint.
        """
        self._check_new_id(stream_id)
        if stream_id not in self._store:
            raise HubError(
                f"store holds no checkpoint for stream {stream_id!r}; "
                "nothing to restore"
            )
        self._adopt(stream_id, session_from_state(self._store.load(stream_id),
                                                  key), key)
        self._stats[stream_id].restores += 1
        self._m_restores.inc()

    def drop(self, stream_id: str, *, force: bool = False) -> None:
        """Evict one stream entirely: session, stats, key and checkpoint.

        A long-lived server would otherwise leak finished sessions into
        the LRU and their checkpoints into the store forever.  Dropping
        an unfinished stream discards un-replayable state, so it
        requires ``force=True``.  The stream id becomes reusable and its
        checkpoint (if any) is deleted from the store.
        """
        self._known(stream_id)
        if not self._stats[stream_id].finished and not force:
            raise HubError(
                f"stream {stream_id!r} is not finished; dropping it "
                "would discard live state (pass force=True to override)"
            )
        self._sessions.pop(stream_id, None)
        self._keys.pop(stream_id, None)
        del self._stats[stream_id]
        if stream_id in self._store:
            self._store.delete(stream_id)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def push(self, stream_id: str, chunk) -> np.ndarray:
        """Route one chunk to its stream; return the released output items.

        Evicted sessions are transparently restored from the store
        first.  When a checkpoint cadence is configured, the stream is
        checkpointed after every ``checkpoint_every``-th push.
        """
        session = self._resident(stream_id)
        stats = self._stats[stream_id]
        array = np.asarray(chunk, dtype=np.float64).ravel()
        t0 = time.perf_counter()
        out = session.feed(array)
        elapsed = time.perf_counter() - t0
        stats.pushes += 1
        stats.items_in += array.size
        stats.items_out += out.size
        stats.busy_seconds += elapsed
        now = time.time()
        if stats.first_push_ts is None:
            stats.first_push_ts = now
        stats.last_push_ts = now
        self._m_pushes.inc()
        self._m_items_in.inc(array.size)
        self._m_items_out.inc(out.size)
        self._m_push_us.observe(1e6 * elapsed)
        if self._checkpoint_every \
                and stats.pushes % self._checkpoint_every == 0:
            self._write_checkpoint(stream_id, session)
        return out

    def push_many(self, batches: "Iterable[tuple[str, object]]") \
            -> "list[tuple[str, np.ndarray]]":
        """Route an interleaved batch of ``(stream_id, chunk)`` pushes.

        Chunks are applied in order, so per-stream chunk order is
        whatever the iterable says; returns the per-push outputs as
        ``(stream_id, released_items)`` in the same order.
        """
        return [(stream_id, self.push(stream_id, chunk))
                for stream_id, chunk in batches]

    def finish(self, stream_id: str) -> np.ndarray:
        """End one stream; drain and return its remaining items.

        With a checkpoint cadence configured, the finished state is
        checkpointed too, so recovery sees the stream as complete.
        """
        session = self._resident(stream_id)
        stats = self._stats[stream_id]
        t0 = time.perf_counter()
        out = session.finish()
        stats.busy_seconds += time.perf_counter() - t0
        stats.items_out += out.size
        stats.finished = True
        self._m_items_out.inc(out.size)
        if self._checkpoint_every:
            self._write_checkpoint(stream_id, session)
        return out

    def finish_all(self) -> "dict[str, np.ndarray]":
        """End every unfinished stream; return each drained tail."""
        return {stream_id: self.finish(stream_id)
                for stream_id in self.stream_ids
                if not self._stats[stream_id].finished}

    # ------------------------------------------------------------------
    # evidence / reporting
    # ------------------------------------------------------------------
    def result(self, stream_id: str):
        """Detection evidence snapshot for one detection stream."""
        session = self._resident(stream_id)
        if not isinstance(session, DetectionSession):
            raise HubError(
                f"stream {stream_id!r} is a "
                f"{self._stats[stream_id].kind} stream; only detection "
                "streams have voting results"
            )
        return session.result()

    def report(self, stream_id: str):
        """Live embed report for one protection stream."""
        session = self._resident(stream_id)
        if not isinstance(session, ProtectionSession):
            raise HubError(
                f"stream {stream_id!r} is a "
                f"{self._stats[stream_id].kind} stream; only protection "
                "streams have embed reports"
            )
        return session.report

    def offsets(self, stream_id: str) -> dict:
        """Authoritative replay/delivery offsets for one stream.

        ``items_in`` is the session's total ingested items (the replay
        offset), ``items_out`` its total released output items (the
        delivery-deduplication offset) — both read from the session
        itself, so they are exact even right after a restore, where the
        hub-lifetime counters in :meth:`stats` restart.  Evicted
        sessions are transparently restored first.
        """
        session = self._resident(stream_id)
        return {
            "items_in": int(session.items_ingested),
            "items_out": int(session.items_released),
            "finished": bool(self._stats[stream_id].finished),
        }

    def scan_batch(self, stream_id: str) -> int:
        """Items one scanner sub-batch of this stream ingests
        (:attr:`~repro.core.params.WatermarkParams.scan_batch`).

        A chunk cut into pushes of this size is scanned exactly as the
        whole chunk would be.  Evicted sessions are transparently
        restored first.
        """
        return self._resident(stream_id).params.scan_batch

    def stats(self, stream_id: "str | None" = None):
        """Per-stream counters: one dict, or ``{stream_id: dict}`` for all."""
        if stream_id is not None:
            self._known(stream_id)
            return self._stats[stream_id].to_dict()
        return {sid: st.to_dict() for sid, st in self._stats.items()}

    def encoding_summary(self) -> dict:
        """Aggregate encoding-search telemetry across *live* sessions.

        Sums each resident session's ``encoding_stats()`` (embeds,
        search iterations, pattern-memo probes/hits) and derives the
        memo hit rate.  Detection sessions add zeros (detection does
        not probe the memo), so the rate describes the embed
        search alone.  Evicted sessions are not restored for this —
        their in-memory search state died with them, so the summary is
        a live-fleet view, sampled only when somebody asks (STATUS
        frame, ``--status-interval``); the hot loops keep plain ints.
        """
        totals = {"embeds": 0, "search_iterations": 0,
                  "pattern_probes": 0, "pattern_memo_hits": 0}
        for session in self._sessions.values():
            stats_fn = getattr(session, "encoding_stats", None)
            snap = stats_fn() if stats_fn is not None else {}
            for key in totals:
                totals[key] += int(snap.get(key, 0) or 0)
        probes = totals["pattern_probes"]
        totals["pattern_memo_hit_rate"] = (
            round(totals["pattern_memo_hits"] / probes, 4) if probes else None)
        return totals

    @property
    def stream_ids(self) -> "tuple[str, ...]":
        """Every registered stream id, in registration order."""
        return tuple(self._stats)

    @property
    def store(self) -> CheckpointStore:
        """The checkpoint store this hub writes to."""
        return self._store

    def __contains__(self, stream_id: str) -> bool:
        """Membership test on registered stream ids."""
        return stream_id in self._stats

    def __len__(self) -> int:
        """Number of registered streams (live + evicted)."""
        return len(self._stats)

    # ------------------------------------------------------------------
    # checkpointing / eviction
    # ------------------------------------------------------------------
    def checkpoint(self, stream_id: str) -> int:
        """Checkpoint one stream now; return the store sequence number.

        For an evicted stream the stored checkpoint already *is* its
        latest state (eviction wrote it), so this returns that entry's
        sequence without reloading the session.
        """
        self._known(stream_id)
        session = self._sessions.get(stream_id)
        if session is None:
            return self._store.entry(stream_id)["sequence"]
        return self._write_checkpoint(stream_id, session)

    def checkpoint_all(self) -> "dict[str, int]":
        """Checkpoint every stream; return each store sequence number."""
        return {stream_id: self.checkpoint(stream_id)
                for stream_id in self.stream_ids}

    def _write_checkpoint(self, stream_id: str, session) -> int:
        if self._checkpoint_hook is not None:
            self._checkpoint_hook(stream_id)
        sequence = self._store.save(stream_id, session.to_state())
        stats = self._stats[stream_id]
        stats.checkpoints += 1
        stats.items_at_checkpoint = stats.items_in
        stats.last_checkpoint_ts = time.time()
        self._m_checkpoints.inc()
        return sequence

    def _shrink(self, exclude: "str | None" = None) -> None:
        if self._max_live is None:
            return
        while len(self._sessions) > self._max_live:
            victim = next(stream_id for stream_id in self._sessions
                          if stream_id != exclude)
            self._write_checkpoint(victim, self._sessions[victim])
            self._stats[victim].evictions += 1
            self._stats[victim].live = False
            del self._sessions[victim]
            self._m_evictions.inc()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, store: CheckpointStore,
                keys: "Mapping | Callable[[str], object]", *,
                checkpoint_every: int = 0,
                max_live_sessions: "int | None" = None) -> "StreamHub":
        """Reconstruct a hub from every checkpoint in ``store``.

        Each stream's latest durable checkpoint is restored into a fresh
        session — **bit-identically**: re-fed the data that followed its
        checkpoint (each stream's replay offset is
        ``stats(id)["items_in"]``), the recovered hub produces exactly
        the output bits and detector votes of an uninterrupted run
        (property-tested).

        ``keys`` maps stream id to that stream's secret key (a mapping,
        or a callable for key-management integration) — checkpoints are
        key-free, so recovery is the moment the secrets re-enter.
        """
        hub = cls(store=store, checkpoint_every=checkpoint_every,
                  max_live_sessions=max_live_sessions)
        key_for = keys if callable(keys) else keys.get
        for stream_id in store.ids():
            key = key_for(stream_id)
            if key is None:
                raise HubError(
                    f"no key provided for checkpointed stream "
                    f"{stream_id!r}; every stream needs its key to "
                    "recover"
                )
            state = store.load(stream_id)
            if max_live_sessions is not None \
                    and len(hub._sessions) >= max_live_sessions:
                # Beyond the residency cap, register cold: restoring a
                # session only to re-checkpoint and evict it would
                # rewrite identical state through the store.
                hub._adopt_cold(stream_id, key, state)
            else:
                hub._adopt(stream_id, session_from_state(state, key), key)
        return hub

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _known(self, stream_id: str) -> None:
        if stream_id in self._stats:
            return
        message = f"unknown stream id {stream_id!r}"
        close = difflib.get_close_matches(str(stream_id), self._stats, n=1)
        if close:
            message += f". Did you mean {close[0]!r}?"
        elif self._stats:
            known = ", ".join(sorted(self._stats)[:8])
            message += f"; registered: {known}"
        else:
            message += "; no streams are registered"
        raise HubError(message)

    def _resident(self, stream_id: str):
        self._known(stream_id)
        session = self._sessions.get(stream_id)
        if session is None:
            session = session_from_state(self._store.load(stream_id),
                                         self._keys[stream_id])
            stats = self._stats[stream_id]
            stats.restores += 1
            stats.live = True
            self._sessions[stream_id] = session
            self._m_restores.inc()
        self._sessions.move_to_end(stream_id)
        self._shrink(exclude=stream_id)
        return session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StreamHub({len(self._stats)} streams, "
                f"{len(self._sessions)} live)")


def store_summary(store: CheckpointStore) -> "list[dict]":
    """Operator view of a store: one row per checkpointed stream.

    Reads each entry (without any key material) and reports the stream
    id, session kind, checkpoint sequence, items ingested at checkpoint
    time and whether the stream had finished — the payload behind
    ``repro hub status``.
    """
    rows = []
    for stream_id in store.ids():
        try:
            entry = store.entry(stream_id)
        except CheckpointStoreError:
            # TOCTOU on a live server: the entry may be deleted (drop,
            # finished-stream cleanup) between ids() and entry().  A
            # vanished id is skipped; a *present but corrupt* entry
            # still propagates its error.
            if stream_id in store:
                raise
            continue
        state = entry["state"]
        scan = state.get("scan") or {}
        counters = scan.get("counters") or {}
        rows.append({
            "stream_id": stream_id,
            "kind": state.get("kind"),
            "sequence": entry["sequence"],
            "items": int(counters.get("items", 0)),
            "finished": bool(state.get("finished", False)),
        })
    return rows

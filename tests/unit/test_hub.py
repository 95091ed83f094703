"""StreamHub unit tests: routing, tenancy, cadence, eviction, recovery.

The invariant every test circles back to: a stream multiplexed through
the hub — interleaved with other tenants, checkpointed, evicted,
restored, even recovered into a different hub after a crash — produces
the **bit-identical** output a dedicated single session produces.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    DetectionSession,
    HubError,
    ParameterError,
    ProtectionSession,
    SessionStateError,
    StreamHub,
    WatermarkParams,
    detect_watermark,
    watermark_stream,
)
from repro.core.quality import QualityMonitor
from repro.stores import DirectoryCheckpointStore, MemoryCheckpointStore
from repro.streams import TemperatureSensorGenerator

PARAMS = WatermarkParams(phi=5)
CHUNK = 400
N_ITEMS = 2800


def fleet_streams(n: int) -> "dict[str, np.ndarray]":
    return {f"sensor-{i}": TemperatureSensorGenerator(
        eta=60, seed=50 + i).generate(N_ITEMS) for i in range(n)}


def key_of(stream_id: str) -> bytes:
    return f"key-{stream_id}".encode()


def interleaved(streams) -> "list[tuple[str, np.ndarray]]":
    """Round-robin batches: the canonical multiplexed arrival order."""
    return [(sid, streams[sid][start:start + CHUNK])
            for start in range(0, N_ITEMS, CHUNK)
            for sid in streams]


def drive(hub, streams) -> "dict[str, np.ndarray]":
    outs = {sid: [] for sid in streams}
    for sid, out in hub.push_many(interleaved(streams)):
        outs[sid].append(out)
    for sid, tail in hub.finish_all().items():
        outs[sid].append(tail)
    return {sid: np.concatenate(pieces) for sid, pieces in outs.items()}


class TestRouting:
    def test_interleaved_pushes_match_single_sessions(self):
        streams = fleet_streams(3)
        hub = StreamHub()
        for sid in streams:
            hub.protect(sid, "10", key_of(sid), params=PARAMS)
        outputs = drive(hub, streams)
        for sid, values in streams.items():
            expected, _ = watermark_stream(values, "10", key_of(sid),
                                           params=PARAMS)
            assert np.array_equal(outputs[sid], expected), sid

    def test_tenants_are_key_isolated(self):
        """Same data, different tenant keys: different watermarks."""
        values = TemperatureSensorGenerator(eta=60, seed=9).generate(N_ITEMS)
        streams = {"a": values, "b": values.copy()}
        hub = StreamHub()
        for sid in streams:
            hub.protect(sid, "10", key_of(sid), params=PARAMS)
        outputs = drive(hub, streams)
        assert not np.array_equal(outputs["a"], outputs["b"])

    def test_detection_streams_vote_like_standalone(self):
        values = TemperatureSensorGenerator(eta=60, seed=3).generate(N_ITEMS)
        marked, _ = watermark_stream(values, "10", b"det-key",
                                     params=PARAMS)
        offline = detect_watermark(marked, 2, b"det-key", params=PARAMS)
        hub = StreamHub()
        hub.detect("suspect", 2, b"det-key", params=PARAMS)
        for start in range(0, N_ITEMS, CHUNK):
            hub.push("suspect", marked[start:start + CHUNK])
        hub.finish("suspect")
        result = hub.result("suspect")
        for bit in range(2):
            assert result.votes(bit) == offline.votes(bit)
            assert result.bias(bit) == offline.bias(bit)

    def test_unknown_stream_id_suggests_neighbour(self):
        hub = StreamHub()
        hub.protect("sensor-17", "1", b"k", params=PARAMS)
        with pytest.raises(HubError, match="sensor-17"):
            hub.push("sensor-l7", [0.0])

    def test_unknown_stream_id_empty_hub(self):
        with pytest.raises(HubError, match="no streams"):
            StreamHub().push("anything", [0.0])

    def test_duplicate_stream_id_rejected(self):
        hub = StreamHub()
        hub.protect("dup", "1", b"k", params=PARAMS)
        with pytest.raises(HubError, match="already registered"):
            hub.detect("dup", 1, b"k", params=PARAMS)

    def test_bad_stream_id_rejected(self):
        with pytest.raises(HubError, match="non-empty string"):
            StreamHub().protect("", "1", b"k", params=PARAMS)

    def test_push_after_finish_rejected(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        hub.finish("s")
        with pytest.raises(ParameterError, match="finished"):
            hub.push("s", [0.0])

    def test_result_on_protection_stream_rejected(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        with pytest.raises(HubError, match="detection"):
            hub.result("s")

    def test_report_on_detection_stream_rejected(self):
        hub = StreamHub()
        hub.detect("s", 1, b"k", params=PARAMS)
        with pytest.raises(HubError, match="protection"):
            hub.report("s")

    def test_membership_and_len(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        assert "s" in hub and "t" not in hub
        assert len(hub) == 1
        assert hub.stream_ids == ("s",)


class TestCheckpointCadence:
    def test_cadence_writes_every_nth_push(self):
        store = MemoryCheckpointStore()
        hub = StreamHub(store=store, checkpoint_every=3)
        hub.protect("s", "1", b"k", params=PARAMS)
        values = TemperatureSensorGenerator(eta=60, seed=1).generate(2400)
        for start in range(0, 2400, CHUNK):  # 6 pushes -> 2 checkpoints
            hub.push("s", values[start:start + CHUNK])
        assert store.entry("s")["sequence"] == 2
        assert hub.stats("s")["checkpoints"] == 2

    def test_finish_writes_final_checkpoint(self):
        store = MemoryCheckpointStore()
        hub = StreamHub(store=store, checkpoint_every=5)
        hub.protect("s", "1", b"k", params=PARAMS)
        hub.push("s", np.zeros(10))
        hub.finish("s")
        assert store.load("s")["finished"] is True

    def test_explicit_checkpoint_returns_sequence(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        assert hub.checkpoint("s") == 1
        assert hub.checkpoint("s") == 2
        assert hub.checkpoint_all() == {"s": 3}

    def test_no_cadence_means_no_automatic_writes(self):
        store = MemoryCheckpointStore()
        hub = StreamHub(store=store)
        hub.protect("s", "1", b"k", params=PARAMS)
        hub.push("s", np.zeros(10))
        hub.finish("s")
        assert "s" not in store

    def test_monitor_sessions_fail_checkpoint_loudly(self):
        hub = StreamHub(checkpoint_every=1)
        hub._adopt("s", ProtectionSession("1", b"k", params=PARAMS,
                                          monitor=QualityMonitor()), b"k")
        with pytest.raises(SessionStateError, match="QualityMonitor"):
            hub.push("s", np.zeros(8))

    def test_invalid_construction_rejected(self):
        with pytest.raises(ParameterError, match="checkpoint_every"):
            StreamHub(checkpoint_every=-1)
        with pytest.raises(ParameterError, match="max_live_sessions"):
            StreamHub(max_live_sessions=0)
        with pytest.raises(ParameterError, match="CheckpointStore"):
            StreamHub(store={})


class TestLruEviction:
    def test_eviction_keeps_outputs_bit_identical(self):
        streams = fleet_streams(5)
        hub = StreamHub(max_live_sessions=2)
        for sid in streams:
            hub.protect(sid, "10", key_of(sid), params=PARAMS)
        outputs = drive(hub, streams)
        stats = hub.stats()
        assert sum(s["evictions"] for s in stats.values()) > 0
        assert sum(s["restores"] for s in stats.values()) > 0
        for sid, values in streams.items():
            expected, _ = watermark_stream(values, "10", key_of(sid),
                                           params=PARAMS)
            assert np.array_equal(outputs[sid], expected), sid

    def test_live_count_stays_bounded(self):
        streams = fleet_streams(6)
        hub = StreamHub(max_live_sessions=3)
        for sid in streams:
            hub.protect(sid, "1", key_of(sid), params=PARAMS)
            assert len(hub._sessions) <= 3
        for sid, chunk in interleaved(streams)[:12]:
            hub.push(sid, chunk)
            assert len(hub._sessions) <= 3
        live_flags = [s["live"] for s in hub.stats().values()]
        assert sum(live_flags) == 3

    def test_lru_victim_is_least_recently_pushed(self):
        hub = StreamHub(max_live_sessions=2)
        for sid in ("a", "b", "c"):
            hub.protect(sid, "1", b"k", params=PARAMS)
        # registration order a, b, c -> a evicted first
        assert hub.stats("a")["live"] is False
        hub.push("b", np.zeros(4))   # LRU order now: c, b
        hub.push("a", np.zeros(4))   # restores a, evicts c
        assert hub.stats("c")["live"] is False
        assert hub.stats("a")["live"] is True


class TestRecovery:
    def test_recover_empty_store_yields_empty_hub(self):
        hub = StreamHub.recover(MemoryCheckpointStore(), {})
        assert len(hub) == 0

    def test_recover_missing_key_is_clean_error(self):
        store = MemoryCheckpointStore()
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("s", "1", b"k", params=PARAMS)
        hub.push("s", np.zeros(32))
        with pytest.raises(HubError, match="no key"):
            StreamHub.recover(store, {})

    def test_recover_restores_mixed_session_kinds(self, tmp_path):
        values = TemperatureSensorGenerator(eta=60, seed=2).generate(1600)
        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("embedder", "1", b"pk", params=PARAMS)
        hub.detect("court", 1, b"dk", params=PARAMS)
        hub.push("embedder", values[:800])
        hub.push("court", values[:800])
        recovered = StreamHub.recover(store,
                                      {"embedder": b"pk", "court": b"dk"})
        assert recovered.stats("embedder")["kind"] == "protection"
        assert recovered.stats("court")["kind"] == "detection"
        assert recovered.stats("embedder")["items_in"] == 800

    def test_bounded_recovery_adopts_overflow_cold(self, tmp_path):
        """Recovery under a residency cap must not thrash: streams
        beyond the cap are registered from envelope facts alone, with
        no redundant store writes, and restore lazily on first push."""
        streams = fleet_streams(4)
        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        for sid in streams:
            hub.protect(sid, "10", key_of(sid), params=PARAMS)
        half = N_ITEMS // 2
        outputs = {sid: [hub.push(sid, streams[sid][:half])]
                   for sid in streams}
        sequences = {sid: store.entry(sid)["sequence"] for sid in streams}
        del hub

        recovered = StreamHub.recover(store, key_of, checkpoint_every=1,
                                      max_live_sessions=2)
        # no eager restore-then-evict writes
        assert {sid: store.entry(sid)["sequence"]
                for sid in streams} == sequences
        stats = recovered.stats()
        assert sum(row["live"] for row in stats.values()) == 2
        assert all(row["items_in"] == half for row in stats.values())
        # cold streams still finish the run bit-identically
        for sid in streams:
            outputs[sid].append(recovered.push(sid, streams[sid][half:]))
            outputs[sid].append(recovered.finish(sid))
            expected, _ = watermark_stream(streams[sid], "10",
                                           key_of(sid), params=PARAMS)
            assert np.array_equal(np.concatenate(outputs[sid]),
                                  expected), sid

    def test_recovered_finished_stream_stays_finished(self):
        store = MemoryCheckpointStore()
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("s", "1", b"k", params=PARAMS)
        hub.push("s", np.zeros(32))
        hub.finish("s")
        recovered = StreamHub.recover(store, {"s": b"k"})
        assert recovered.stats("s")["finished"] is True
        with pytest.raises(ParameterError, match="finished"):
            recovered.push("s", [0.0])

    def test_key_material_never_reaches_the_store(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1,
                        max_live_sessions=1)
        secret = b"extremely-secret-hub-key"
        values = TemperatureSensorGenerator(eta=60, seed=4).generate(1200)
        hub.protect("s1", "1", secret, params=PARAMS)
        hub.protect("s2", "1", secret, params=PARAMS)
        hub.push("s1", values[:600])
        hub.push("s2", values[600:])
        hub.checkpoint_all()
        on_disk = "".join(p.read_text() for p in tmp_path.iterdir())
        assert secret.decode() not in on_disk

    def test_stats_json_compatible(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        hub.push("s", np.zeros(16))
        json.dumps(hub.stats())  # must not raise


class TestMidstreamReplay:
    def test_recover_then_replay_from_items_in_offset(self, tmp_path):
        """Cadence > 1: recovery rewinds to the last checkpoint and the
        caller replays from stats()["items_in"] — output still
        bit-identical to the uninterrupted run."""
        values = TemperatureSensorGenerator(eta=60, seed=8).generate(N_ITEMS)
        expected, _ = watermark_stream(values, "10", b"k", params=PARAMS)

        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=3)
        hub.protect("s", "10", b"k", params=PARAMS)
        pieces = []
        for start in range(0, 5 * CHUNK, CHUNK):  # 5 pushes, ckpt at 3
            pieces.append(hub.push("s", values[start:start + CHUNK]))
        del hub  # crash: pushes 4 and 5 were never made durable

        recovered = StreamHub.recover(store, {"s": b"k"})
        offset = recovered.stats("s")["items_in"]
        assert offset == 3 * CHUNK
        pieces = pieces[:3]  # downstream discards what followed the ckpt
        for start in range(offset, N_ITEMS, CHUNK):
            pieces.append(recovered.push("s", values[start:start + CHUNK]))
        pieces.append(recovered.finish("s"))
        assert np.array_equal(np.concatenate(pieces), expected)


class TestDropAndRestore:
    def test_drop_finished_stream_frees_hub_and_store(self, tmp_path):
        """drop() evicts a finished stream and deletes its checkpoint —
        the long-lived-server leak fix."""
        values = TemperatureSensorGenerator(eta=60, seed=71).generate(1200)
        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("done", "1", b"k", params=PARAMS)
        hub.push("done", values)
        hub.finish("done")
        assert "done" in hub and "done" in store
        hub.drop("done")
        assert "done" not in hub
        assert "done" not in store
        assert len(store) == 0

    def test_dropped_id_is_reusable(self):
        hub = StreamHub(checkpoint_every=1)
        hub.protect("recycled", "1", b"k", params=PARAMS)
        hub.finish("recycled")
        hub.drop("recycled")
        hub.protect("recycled", "1", b"k2", params=PARAMS)  # no duplicate
        assert "recycled" in hub

    def test_drop_unfinished_requires_force(self):
        hub = StreamHub(checkpoint_every=1)
        hub.protect("live", "1", b"k", params=PARAMS)
        hub.push("live", np.zeros(64))
        with pytest.raises(HubError, match="force"):
            hub.drop("live")
        hub.drop("live", force=True)
        assert "live" not in hub

    def test_drop_without_checkpoint_is_fine(self):
        """A finished stream that never checkpointed (cadence 0) drops
        cleanly without a store delete error."""
        hub = StreamHub()  # memory store, checkpoint_every=0
        hub.protect("no-ckpt", "1", b"k", params=PARAMS)
        hub.finish("no-ckpt")
        hub.drop("no-ckpt")
        assert len(hub) == 0

    def test_drop_unknown_stream_is_helpful(self):
        hub = StreamHub()
        with pytest.raises(HubError, match="unknown stream id"):
            hub.drop("ghost")

    def test_restore_adopts_one_stream_from_store(self, tmp_path):
        """restore() is per-stream recover: a hub started empty against
        an existing store re-admits streams lazily, bit-identically."""
        values = TemperatureSensorGenerator(eta=60, seed=72).generate(N_ITEMS)
        expected, _ = watermark_stream(values, "10", b"k", params=PARAMS)

        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("lazy", "10", b"k", params=PARAMS)
        pieces = [hub.push("lazy", values[:CHUNK])]
        del hub  # crash

        fresh = StreamHub(store=store, checkpoint_every=1)
        assert "lazy" not in fresh
        fresh.restore("lazy", b"k")
        assert "lazy" in fresh
        offset = fresh.offsets("lazy")["items_in"]
        assert offset == CHUNK
        for start in range(offset, N_ITEMS, CHUNK):
            pieces.append(fresh.push("lazy", values[start:start + CHUNK]))
        pieces.append(fresh.finish("lazy"))
        assert np.array_equal(np.concatenate(pieces), expected)

    def test_restore_without_checkpoint_is_an_error(self):
        hub = StreamHub()
        with pytest.raises(HubError, match="nothing to restore"):
            hub.restore("never-seen", b"k")

    def test_restore_duplicate_id_rejected(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("dup", "1", b"k", params=PARAMS)
        hub.push("dup", np.zeros(64))
        with pytest.raises(HubError, match="already registered"):
            hub.restore("dup", b"k")


class TestOffsets:
    def test_offsets_track_window_held_items(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        out = hub.push("s", np.zeros(600))
        offsets = hub.offsets("s")
        assert offsets["items_in"] == 600
        assert offsets["items_out"] == len(out)
        assert not offsets["finished"]
        tail = hub.finish("s")
        offsets = hub.offsets("s")
        assert offsets["items_out"] == len(out) + len(tail) == 600
        assert offsets["finished"]

    def test_offsets_exact_after_recover(self, tmp_path):
        """items_out must come from the session, not hub-lifetime stats
        (which restart at zero after recover)."""
        values = TemperatureSensorGenerator(eta=60, seed=73).generate(1600)
        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("s", "1", b"k", params=PARAMS)
        out = hub.push("s", values)
        before = hub.offsets("s")
        assert before["items_out"] == len(out)
        del hub

        recovered = StreamHub.recover(store, {"s": b"k"})
        assert recovered.stats("s")["items_out"] == 0  # hub-lifetime
        after = recovered.offsets("s")
        assert after == before  # session-authoritative


class TestStoreSummaryRaces:
    def test_entry_deleted_between_ids_and_entry_is_skipped(self, tmp_path):
        """TOCTOU on a live server: a row vanishing mid-summary is
        dropped, not an error."""
        from repro.hub import store_summary

        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        for sid in ("a", "b", "c"):
            hub.protect(sid, "1", b"k", params=PARAMS)
            hub.push(sid, np.zeros(64))

        class RacingStore:
            """Deletes 'b' the moment the summary first touches it."""

            def ids(self):
                return store.ids()

            def entry(self, stream_id):
                if stream_id == "b" and "b" in store:
                    store.delete(stream_id)
                return store.entry(stream_id)

            def __contains__(self, stream_id):
                return stream_id in store

        rows = store_summary(RacingStore())
        assert [row["stream_id"] for row in rows] == ["a", "c"]

    def test_present_but_corrupt_entry_still_raises(self, tmp_path):
        from repro.errors import CheckpointStoreError
        from repro.hub import store_summary

        store = DirectoryCheckpointStore(tmp_path)
        hub = StreamHub(store=store, checkpoint_every=1)
        hub.protect("ok", "1", b"k", params=PARAMS)
        hub.push("ok", np.zeros(64))
        (tmp_path / "corrupt.json").write_text("{not json")
        with pytest.raises(CheckpointStoreError):
            store_summary(store)


class TestStatsObservability:
    """The derived health fields ISSUE 9 adds to ``stats()``."""

    def test_checkpoint_lag_tracks_uncheckpointed_items(self):
        store = MemoryCheckpointStore()
        hub = StreamHub(store=store, checkpoint_every=2)
        hub.protect("s", "1", b"k", params=PARAMS)
        values = TemperatureSensorGenerator(eta=60, seed=7).generate(1200)
        hub.push("s", values[:CHUNK])
        assert hub.stats("s")["checkpoint_lag"] == CHUNK  # not yet written
        assert hub.stats("s")["last_checkpoint_ts"] is None
        hub.push("s", values[CHUNK:2 * CHUNK])  # cadence fires
        stats = hub.stats("s")
        assert stats["checkpoint_lag"] == 0
        assert stats["last_checkpoint_ts"] is not None
        hub.push("s", values[2 * CHUNK:])
        assert hub.stats("s")["checkpoint_lag"] == 1200 - 2 * CHUNK

    def test_no_store_means_lag_accumulates(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        hub.push("s", np.linspace(0.0, 10.0, 500))
        stats = hub.stats("s")
        assert stats["checkpoint_lag"] == 500
        assert stats["last_checkpoint_ts"] is None

    def test_rate_and_cost_fields(self):
        hub = StreamHub()
        hub.protect("s", "1", b"k", params=PARAMS)
        values = TemperatureSensorGenerator(eta=60, seed=8).generate(800)
        hub.push("s", values[:400])
        assert hub.stats("s")["items_per_s"] is None  # one push: no window
        hub.push("s", values[400:])
        stats = hub.stats("s")
        assert stats["us_per_item"] is not None and stats["us_per_item"] > 0
        assert stats["items_per_s"] is not None and stats["items_per_s"] > 0
        assert stats["busy_seconds"] >= 0.0
        json.dumps(stats)  # the whole row stays JSON-compatible


class TestEncodingSummary:
    """Detection sessions add nothing to the pattern-memo telemetry:
    multi-hash detection never probes the memo, so
    ``hub_pattern_memo_hit_rate`` describes the embed search alone."""

    #: The random search probes through the memo; one-item runs over
    #: four-item subsets keep it fast.
    RANDOM = WatermarkParams(phi=5, active_run_length=1, max_subset_embed=4)

    def test_detection_sessions_report_no_memo_probes(self):
        values = TemperatureSensorGenerator(eta=60, seed=9).generate(N_ITEMS)
        session = DetectionSession(1, b"k", params=PARAMS)
        session.feed(values)
        session.finish()
        stats = session.encoding_stats()
        assert stats["pattern_probes"] == stats["pattern_memo_hits"] == 0
        assert session.result().votes(0) > 0

    def test_summary_describes_the_embed_search_alone(self):
        values = TemperatureSensorGenerator(eta=60, seed=9).generate(N_ITEMS)

        def summary(with_detection: bool) -> dict:
            hub = StreamHub()
            hub.protect("embed", "1", b"k", params=self.RANDOM,
                        encoding_options={"method": "random", "rng": 7})
            hub.push("embed", values)
            if with_detection:
                hub.detect("scan", 1, b"k", params=PARAMS)
                hub.push("scan", values)
            return hub.encoding_summary()

        embed_only = summary(False)
        assert embed_only["pattern_probes"] > 0
        assert summary(True) == embed_only

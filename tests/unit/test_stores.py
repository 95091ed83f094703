"""Checkpoint store backends: contract, atomicity, corruption handling.

Both backends run the same contract suite (envelope round-trip, sequence
numbering, missing-id errors); the directory backend additionally proves
its atomic-write discipline and that arbitrary stream ids survive the
file-name encoding.  Corrupt entries — truncated JSON, wrong kinds,
future versions, hand-edited envelopes — must all raise
:class:`repro.errors.CheckpointStoreError`, never restore garbage.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos import (ChaosCheckpointStore, FaultInjector, FaultPlan,
                         StoreFaults)
from repro.errors import CheckpointStoreError
from repro.stores import (CheckpointStore, DirectoryCheckpointStore,
                          MemoryCheckpointStore)

STATE = {"kind": "protection-session", "format_version": 1,
         "config": {"encoding": "multihash"}, "scan": {"counters": {}}}


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    """One instance of each backend, same contract."""
    if request.param == "memory":
        return MemoryCheckpointStore()
    return DirectoryCheckpointStore(tmp_path / "store")


class TestContract:
    def test_save_load_roundtrip(self, store):
        store.save("s1", STATE)
        assert store.load("s1") == STATE

    def test_sequence_increments_per_save(self, store):
        assert store.save("s1", STATE) == 1
        assert store.save("s1", STATE) == 2
        assert store.save("other", STATE) == 1
        assert store.entry("s1")["sequence"] == 2

    def test_latest_wins(self, store):
        store.save("s1", dict(STATE, extra=1))
        store.save("s1", dict(STATE, extra=2))
        assert store.load("s1")["extra"] == 2

    def test_ids_sorted_and_len(self, store):
        for stream_id in ("b", "a", "c"):
            store.save(stream_id, STATE)
        assert store.ids() == ("a", "b", "c")
        assert len(store) == 3
        assert "a" in store and "zz" not in store

    def test_delete(self, store):
        store.save("s1", STATE)
        store.delete("s1")
        assert "s1" not in store
        with pytest.raises(CheckpointStoreError, match="no checkpoint"):
            store.delete("s1")

    def test_load_missing_id_is_clean_error(self, store):
        with pytest.raises(CheckpointStoreError, match="no checkpoint"):
            store.load("never-saved")

    def test_non_dict_state_rejected(self, store):
        with pytest.raises(CheckpointStoreError, match="dict"):
            store.save("s1", [1, 2, 3])

    def test_bad_stream_id_rejected(self, store):
        with pytest.raises(CheckpointStoreError, match="stream id"):
            store.save("", STATE)
        with pytest.raises(CheckpointStoreError, match="stream id"):
            store.save(7, STATE)

    def test_unserializable_state_rejected_identically(self, store):
        """numpy arrays (and friends) fail in BOTH backends, not just
        the durable one — no backend-dependent surprises."""
        import numpy as np

        with pytest.raises(CheckpointStoreError,
                           match="JSON-serializable"):
            store.save("s1", {"window": np.zeros(3)})

    def test_stored_state_immune_to_caller_mutation(self, store):
        state = {"kind": "protection-session", "nested": {"x": 1}}
        store.save("s1", state)
        state["nested"]["x"] = 999
        assert store.load("s1")["nested"]["x"] == 1


class TestDirectoryBackend:
    def test_no_temp_files_left_behind(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        for i in range(5):
            store.save("s1", dict(STATE, i=i))
        leftovers = [p for p in tmp_path.iterdir()
                     if not p.name.endswith(".json")
                     and not p.name.rsplit(".", 1)[-1].isdigit()]
        assert leftovers == []

    def test_envelope_written_to_disk(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        store.save("s1", STATE)
        entry = json.loads((tmp_path / "s1.json").read_text())
        assert entry["kind"] == "hub-checkpoint"
        assert entry["stream_id"] == "s1"
        assert entry["sequence"] == 1
        assert entry["state"] == STATE

    def test_unsafe_stream_ids_roundtrip(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        ids = ("tenant/sensor-1", "..", "a b", "söns≤r", "%41")
        for stream_id in ids:
            store.save(stream_id, dict(STATE, id=stream_id))
        assert store.ids() == tuple(sorted(ids))
        for stream_id in ids:
            assert store.load(stream_id)["id"] == stream_id
        # every file stays inside the store directory
        for entry in tmp_path.iterdir():
            assert entry.parent == tmp_path

    def test_missing_directory_without_create_is_error(self, tmp_path):
        with pytest.raises(CheckpointStoreError, match="does not exist"):
            DirectoryCheckpointStore(tmp_path / "nope", create=False)

    def test_path_is_a_file_is_error(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(CheckpointStoreError, match="not a directory"):
            DirectoryCheckpointStore(target)

    def test_reopen_continues_sequence(self, tmp_path):
        DirectoryCheckpointStore(tmp_path).save("s1", STATE)
        assert DirectoryCheckpointStore(tmp_path).save("s1", STATE) == 2


class TestCorruptEntries:
    @pytest.fixture()
    def dir_store(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path)
        store.save("s1", STATE)
        return store

    def corrupt(self, dir_store, mutate) -> None:
        path = dir_store.path / "s1.json"
        mutated = mutate(json.loads(path.read_text()))
        path.write_text(json.dumps(mutated))

    def test_truncated_json_is_clean_error(self, dir_store):
        path = dir_store.path / "s1.json"
        path.write_text(path.read_text()[:25])
        with pytest.raises(CheckpointStoreError, match="not valid JSON"):
            dir_store.load("s1")

    def test_wrong_entry_kind_rejected(self, dir_store):
        self.corrupt(dir_store,
                     lambda e: dict(e, kind="something-else"))
        with pytest.raises(CheckpointStoreError, match="kind"):
            dir_store.load("s1")

    def test_newer_version_rejected(self, dir_store):
        self.corrupt(dir_store, lambda e: dict(e, format_version=99))
        with pytest.raises(CheckpointStoreError, match="newer"):
            dir_store.load("s1")

    def test_unknown_envelope_field_rejected(self, dir_store):
        self.corrupt(dir_store, lambda e: dict(e, smuggled=True))
        with pytest.raises(CheckpointStoreError, match="unknown"):
            dir_store.load("s1")

    def test_non_dict_state_in_entry_rejected(self, dir_store):
        self.corrupt(dir_store, lambda e: dict(e, state="oops"))
        with pytest.raises(CheckpointStoreError, match="state"):
            dir_store.load("s1")

    def test_missing_sequence_rejected(self, dir_store):
        self.corrupt(dir_store,
                     lambda e: {k: v for k, v in e.items()
                                if k != "sequence"})
        with pytest.raises(CheckpointStoreError, match="sequence"):
            dir_store.load("s1")

    def test_non_object_entry_rejected(self, dir_store):
        (dir_store.path / "s1.json").write_text("[1, 2, 3]")
        with pytest.raises(CheckpointStoreError, match="object"):
            dir_store.load("s1")

    def test_save_over_corrupt_entry_propagates(self, dir_store):
        """Overwriting a corrupt checkpoint must not silently restart
        the sequence over garbage."""
        (dir_store.path / "s1.json").write_text("{")
        with pytest.raises(CheckpointStoreError):
            dir_store.save("s1", STATE)


class TestGenerations:
    """The last-good-checkpoint ladder: rotation, fallback, quarantine."""

    def test_generations_accumulate_up_to_the_cap(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, generations=3)
        for i in range(1, 6):
            store.save("s", dict(STATE, n=i))
        latest = json.loads((tmp_path / "s.json").read_text())
        gen1 = json.loads((tmp_path / "s.json.1").read_text())
        gen2 = json.loads((tmp_path / "s.json.2").read_text())
        assert (latest["sequence"], gen1["sequence"],
                gen2["sequence"]) == (5, 4, 3)
        assert not (tmp_path / "s.json.3").exists()

    def test_generation_files_are_invisible_to_ids(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, generations=3)
        for i in range(4):
            store.save("s", dict(STATE, n=i))
        assert store.ids() == ("s",)
        assert len(store) == 1

    def test_corrupt_latest_falls_back_and_quarantines(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, generations=3)
        for i in range(1, 4):
            store.save("s", dict(STATE, n=i))
        (tmp_path / "s.json").write_text('{"kind": "hub-ch')  # torn
        entry = store.entry("s")
        assert entry["sequence"] == 2
        assert entry["state"]["n"] == 2
        assert store.fallbacks == 1
        assert store.quarantined == 1
        quarantined = list((tmp_path / "corrupt").iterdir())
        assert [p.name for p in quarantined] == ["s.json"]
        # The promoted generation IS the latest now; a fresh store sees
        # a normal, intact entry and the sequence resumes from it.
        fresh = DirectoryCheckpointStore(tmp_path, generations=3)
        assert fresh.load("s")["n"] == 2
        assert fresh.save("s", dict(STATE, n=9)) == 3

    def test_all_generations_corrupt_still_raises(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, generations=3)
        for i in range(1, 4):
            store.save("s", dict(STATE, n=i))
        for name in ("s.json", "s.json.1", "s.json.2"):
            (tmp_path / name).write_text("{garbage")
        with pytest.raises(CheckpointStoreError, match="not valid JSON"):
            store.entry("s")
        assert store.fallbacks == 0
        # The damaged generations were moved aside, but the latest is
        # left in place: the stream stays visibly present-and-corrupt
        # instead of masquerading as deleted.
        assert store.quarantined == 2
        assert (tmp_path / "s.json").exists()
        assert "s" in store

    def test_single_generation_store_keeps_old_semantics(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, generations=1)
        store.save("s", dict(STATE, n=1))
        store.save("s", dict(STATE, n=2))
        assert not (tmp_path / "s.json.1").exists()
        (tmp_path / "s.json").write_text("{")
        with pytest.raises(CheckpointStoreError):
            store.load("s")

    def test_save_over_corrupt_latest_recovers_sequence(self, tmp_path):
        """With a generation behind it, saving over a corrupt latest
        recovers the sequence from the fallback instead of raising."""
        store = DirectoryCheckpointStore(tmp_path, generations=3)
        store.save("s", dict(STATE, n=1))
        store.save("s", dict(STATE, n=2))
        (tmp_path / "s.json").write_text("{")
        assert store.save("s", dict(STATE, n=3)) == 2  # resumes after 1
        assert store.load("s")["n"] == 3

    def test_delete_removes_generations_too(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, generations=3)
        for i in range(4):
            store.save("s", dict(STATE, n=i))
        store.delete("s")
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith("s.json")]
        assert leftovers == []


class _Killed(BaseException):
    """Simulates the process dying at an exact point (not an OSError,
    so the store's own error handling cannot intercept it)."""


class TestCrashWindows:
    """Kill the writer inside `_put`'s two crash windows and prove the
    prior generation survives, bit-identical, for recovery."""

    def _seeded(self, tmp_path):
        store = DirectoryCheckpointStore(tmp_path, generations=3)
        store.save("s", dict(STATE, n=1))
        store.save("s", dict(STATE, n=2))
        return store, (tmp_path / "s.json").read_bytes()

    def test_kill_between_payload_fsync_and_replace(self, tmp_path,
                                                    monkeypatch):
        """Window 1: the new entry is written and fsynced to the temp
        file, but the rename never happens.  The latest on disk must
        still be the previous complete checkpoint, byte for byte."""
        import repro.stores as stores_module

        store, before = self._seeded(tmp_path)
        real_replace = os.replace

        def dying_replace(src, dst, *args, **kwargs):
            if str(src).endswith(".tmp") and str(dst).endswith("s.json"):
                raise _Killed()
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(stores_module.os, "replace", dying_replace)
        with pytest.raises(_Killed):
            store.save("s", dict(STATE, n=3))
        monkeypatch.undo()

        assert (tmp_path / "s.json").read_bytes() == before
        recovered = DirectoryCheckpointStore(tmp_path, generations=3)
        assert recovered.load("s")["n"] == 2
        assert recovered.entry("s")["sequence"] == 2
        # Recovery continues exactly where the last durable save ended.
        assert recovered.save("s", dict(STATE, n=3)) == 3

    def test_kill_between_replace_and_directory_fsync(self, tmp_path,
                                                      monkeypatch):
        """Window 2: the rename landed but the directory fsync did not.
        The new entry is readable and the previous one survives as
        generation 1 — no window ever has zero intact checkpoints."""
        import repro.stores as stores_module

        store, before = self._seeded(tmp_path)
        real_fsync = os.fsync
        calls = {"n": 0}

        def dying_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 2:  # 1st: payload fd; 2nd: directory fd
                raise _Killed()
            return real_fsync(fd)

        monkeypatch.setattr(stores_module.os, "fsync", dying_fsync)
        with pytest.raises(_Killed):
            store.save("s", dict(STATE, n=3))
        monkeypatch.undo()

        recovered = DirectoryCheckpointStore(tmp_path, generations=3)
        assert recovered.load("s")["n"] == 3
        assert (tmp_path / "s.json.1").read_bytes() == before
        assert recovered.save("s", dict(STATE, n=4)) == 4

    def test_kill_during_rotation_leaves_an_intact_latest(self, tmp_path,
                                                          monkeypatch):
        """Window 0: dying while generations shift must never remove
        the latest entry (rotation links, it does not move)."""
        import repro.stores as stores_module

        store, before = self._seeded(tmp_path)
        real_link = os.link

        def dying_link(src, dst, *args, **kwargs):
            raise _Killed()

        monkeypatch.setattr(stores_module.os, "link", dying_link)
        with pytest.raises(_Killed):
            store.save("s", dict(STATE, n=3))
        monkeypatch.undo()
        assert real_link is os.link

        assert (tmp_path / "s.json").read_bytes() == before
        recovered = DirectoryCheckpointStore(tmp_path, generations=3)
        assert recovered.load("s")["n"] == 2


#: Store shapes whose sequence numbering must agree with a store that
#: decodes the previous entry on every save.
STORE_KINDS = ("memory", "directory-g1", "directory-g3",
               "chaos-directory-g3")

#: Expected outcome of a save that must fail.
RAISES = "raises"


def _build(kind: str, path) -> CheckpointStore:
    if kind == "memory":
        return MemoryCheckpointStore()
    if kind == "directory-g1":
        return DirectoryCheckpointStore(path, generations=1)
    directory = DirectoryCheckpointStore(path, generations=3)
    if kind == "directory-g3":
        return directory
    return ChaosCheckpointStore(directory,
                                FaultInjector(FaultPlan(seed=1)))


def _backend(store: CheckpointStore) -> CheckpointStore:
    return getattr(store, "inner", store)


def _envelope(stream_id: str, sequence: int) -> str:
    return json.dumps({"format_version": 1, "kind": "hub-checkpoint",
                       "stream_id": stream_id, "sequence": sequence,
                       "state": STATE})


def _corrupt_latest(store: CheckpointStore, stream_id: str) -> None:
    """Damage the latest entry in place, behind the store's back."""
    backend = _backend(store)
    if isinstance(backend, MemoryCheckpointStore):
        backend._put(stream_id, "{")
    else:
        (backend.path / f"{stream_id}.json").write_text("{")


def _failed_save(store: CheckpointStore, stream_id: str, *,
                 torn: bool) -> None:
    """One save whose write fails: a torn prefix of the entry lands
    (``torn``), or nothing does (a transient I/O error)."""
    if isinstance(store, ChaosCheckpointStore):
        clean = store._faults
        store._faults = StoreFaults(**{
            "torn_write_rate" if torn else "io_error_rate": 1.0})
        try:
            with pytest.raises(CheckpointStoreError, match="chaos"):
                store.save(stream_id, STATE)
        finally:
            store._faults = clean
        return
    put = store._put

    def failing_put(sid, text):
        if torn:
            put(sid, text[:len(text) // 2])
        raise CheckpointStoreError("write failed")

    store._put = failing_put
    try:
        with pytest.raises(CheckpointStoreError, match="write failed"):
            store.save(stream_id, STATE)
    finally:
        del store._put


def _expect_save(store: CheckpointStore, stream_id: str, expected) -> None:
    if expected == RAISES:
        with pytest.raises(CheckpointStoreError):
            store.save(stream_id, STATE)
    else:
        assert store.save(stream_id, STATE) == expected


@pytest.fixture()
def seeded(kind, tmp_path):
    """A store of one kind holding three saves of stream ``s``."""
    store = _build(kind, tmp_path / "store")
    assert [store.save("s", STATE) for _ in range(3)] == [1, 2, 3]
    return store


@pytest.mark.parametrize("kind", STORE_KINDS)
class TestSequenceParity:
    """Sequences a store remembers equal the ones it would read back.

    Each case starts from three saves (sequence 3) and checks the next
    save against what decoding the stored entry gives.
    """

    @pytest.fixture()
    def store(self, seeded):
        return seeded

    def test_repeated_saves(self, store):
        assert [store.save("s", STATE) for _ in range(3)] == [4, 5, 6]
        assert store.save("other", STATE) == 1
        assert store.entry("s")["sequence"] == 6

    def test_delete_then_save_restarts_at_one(self, store):
        store.delete("s")
        assert store.save("s", STATE) == 1

    def test_torn_write(self, store, kind):
        _failed_save(store, "s", torn=True)
        # The torn entry is the latest: without an intact generation
        # behind it the next save raises, with one it falls back to the
        # generation the torn write rotated out (sequence 3).
        _expect_save(store, "s", 4 if kind.endswith("g3") else RAISES)

    def test_io_error(self, store):
        _failed_save(store, "s", torn=False)
        _expect_save(store, "s", 4)

    def test_generation_fallback(self, store, kind):
        _corrupt_latest(store, "s")
        if not kind.endswith("g3"):
            with pytest.raises(CheckpointStoreError):
                store.load("s")
            return
        assert store.entry("s")["sequence"] == 2
        _expect_save(store, "s", 3)

    def test_external_corruption(self, store, kind):
        _corrupt_latest(store, "s")
        # A fallback promotes generation 1 (sequence 2).
        _expect_save(store, "s", 3 if kind.endswith("g3") else RAISES)

    def test_external_corruption_of_every_generation_raises(self, store):
        _corrupt_latest(store, "s")
        backend = _backend(store)
        for generation in (1, 2):
            if isinstance(backend, DirectoryCheckpointStore):
                path = backend.path / f"s.json.{generation}"
                if path.exists():
                    path.write_text("{")
        _expect_save(store, "s", RAISES)

    def test_external_rewrite(self, store):
        _backend(store)._put("s", _envelope("s", 41))
        _expect_save(store, "s", 42)


def test_steady_memory_saves_decode_at_most_once(monkeypatch):
    """The memory store numbers steady saves without reading back."""
    store = MemoryCheckpointStore()
    decode = CheckpointStore._decode
    decoded = []

    def counting_decode(self, raw, stream_id):
        decoded.append(stream_id)
        return decode(self, raw, stream_id)

    monkeypatch.setattr(CheckpointStore, "_decode", counting_decode)
    assert [store.save("s", dict(STATE, n=n)) for n in range(100)] \
        == list(range(1, 101))
    assert len(decoded) <= 1


def test_memory_store_keeps_nothing_of_a_deleted_stream():
    store = MemoryCheckpointStore()
    store.save("s", STATE)
    store.delete("s")
    assert store._entries == {} and store._saved == {}


@pytest.mark.parametrize("kind", STORE_KINDS[1:])
class TestSequenceParityOnDisk:
    """Changes to the file that only a directory backend can see."""

    def test_in_place_rewrite(self, seeded):
        (_backend(seeded).path / "s.json").write_text(_envelope("s", 41))
        _expect_save(seeded, "s", 42)

    def test_second_writer(self, seeded):
        other = DirectoryCheckpointStore(_backend(seeded).path,
                                         generations=3)
        assert other.save("s", STATE) == 4
        _expect_save(seeded, "s", 5)


class TestStreamIdFuzz:
    # max 24 chars: percent-encoding can expand a char to 9 bytes and
    # the encoded name must stay under the 255-byte filename limit.
    @given(stream_id=st.text(min_size=1, max_size=24))
    def test_any_reasonable_id_roundtrips_on_disk(self, stream_id,
                                                  tmp_path_factory):
        store = DirectoryCheckpointStore(
            tmp_path_factory.mktemp("fuzz-store"))
        store.save(stream_id, dict(STATE, marker="here"))
        assert store.ids() == (stream_id,)
        assert store.load(stream_id)["marker"] == "here"
        file_names = [p.name for p in store.path.iterdir()]
        assert all(os.sep not in name for name in file_names)

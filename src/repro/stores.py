"""Pluggable checkpoint stores: where hub session checkpoints live.

A :class:`repro.hub.StreamHub` survives worker crashes by writing each
session's key-free checkpoint (``session.to_state()``) to a
:class:`CheckpointStore`.  The store contract is deliberately tiny —
latest-checkpoint-wins per stream id — so backends can range from a
process-local dict to a replicated object store:

* :class:`MemoryCheckpointStore` — in-process; used for LRU eviction of
  idle sessions when durability is not required, and in tests;
* :class:`DirectoryCheckpointStore` — one JSON file per stream in a
  directory, written atomically (temp file + ``fsync`` + ``os.replace``)
  so a crash mid-write can never leave a half checkpoint; arbitrary
  stream ids are percent-encoded into safe file names.

Every entry is a **versioned JSON envelope**::

    {"format_version": 1, "kind": "hub-checkpoint",
     "stream_id": "...", "sequence": 7, "state": {...}}

``sequence`` increments on every save, so operators (and ``repro hub
status``) can see checkpoint progress.  A save learns the sequence to
follow by reading back and decoding the latest entry; the memory store
skips that read while the entry is still the very text its own last
save stored.  The secret keys are **never** part of any entry — stores
persist only what ``to_state()`` emits, and that contract excludes key
material by construction.

Both backends funnel through one JSON round-trip, so a state that the
directory backend would reject (non-serializable values) fails
identically in memory — no backend-dependent surprises.  All failure
modes raise :class:`repro.errors.CheckpointStoreError`.
"""

from __future__ import annotations

import abc
import json
import logging
import os
import shutil
import tempfile
from pathlib import Path
from urllib.parse import quote, unquote

from repro.errors import CheckpointStoreError

logger = logging.getLogger("repro.stores")

_STORE_VERSION = 1
_ENTRY_KIND = "hub-checkpoint"


def _make_entry(stream_id: str, state: dict, sequence: int) -> dict:
    if not isinstance(stream_id, str) or not stream_id:
        raise CheckpointStoreError(
            f"stream id must be a non-empty string, got {stream_id!r}"
        )
    if not isinstance(state, dict):
        raise CheckpointStoreError(
            f"checkpoint state for {stream_id!r} must be a dict, "
            f"got {type(state).__name__}"
        )
    return {
        "format_version": _STORE_VERSION,
        "kind": _ENTRY_KIND,
        "stream_id": stream_id,
        "sequence": int(sequence),
        "state": state,
    }


def validate_entry(entry, *, source: str) -> dict:
    """Check a decoded envelope; raise :class:`CheckpointStoreError` if bad.

    ``source`` names where the entry came from (a path, a stream id) so
    the error message points at the corrupt artifact.
    """
    if not isinstance(entry, dict):
        raise CheckpointStoreError(
            f"{source}: checkpoint entry must be a JSON object, "
            f"got {type(entry).__name__}"
        )
    unknown = set(entry) - {"format_version", "kind", "stream_id",
                            "sequence", "state"}
    if unknown:
        raise CheckpointStoreError(
            f"{source}: unknown checkpoint entry fields {sorted(unknown)}"
        )
    if entry.get("kind") != _ENTRY_KIND:
        raise CheckpointStoreError(
            f"{source}: expected entry kind {_ENTRY_KIND!r}, "
            f"got {entry.get('kind')!r}"
        )
    try:
        version = int(entry["format_version"])
    except (KeyError, TypeError, ValueError):
        raise CheckpointStoreError(
            f"{source}: checkpoint entry has no integer format_version "
            "(truncated write?)"
        ) from None
    if version > _STORE_VERSION:
        raise CheckpointStoreError(
            f"{source}: entry written by a newer library version "
            f"({version} > {_STORE_VERSION})"
        )
    if not isinstance(entry.get("stream_id"), str) or not entry["stream_id"]:
        raise CheckpointStoreError(
            f"{source}: entry carries no stream_id"
        )
    try:
        entry["sequence"] = int(entry["sequence"])
    except (KeyError, TypeError, ValueError):
        raise CheckpointStoreError(
            f"{source}: entry sequence is not an integer"
        ) from None
    if not isinstance(entry.get("state"), dict):
        raise CheckpointStoreError(
            f"{source}: entry state is not a dict (truncated checkpoint?)"
        )
    return entry


class CheckpointStore(abc.ABC):
    """Latest-checkpoint-wins storage for hub session states.

    Subclasses implement four text-level primitives (:meth:`_put`,
    :meth:`_get`, :meth:`_discard`, :meth:`_ids`); the envelope logic —
    JSON encoding, sequence numbering, validation — lives here once, so
    every backend accepts and rejects exactly the same payloads.
    """

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def save(self, stream_id: str, state: dict) -> int:
        """Persist ``state`` as the latest checkpoint; return its sequence.

        The sequence number starts at 1 and increments on every save of
        the same stream id (replacing the previous entry atomically).
        """
        previous = self._current_sequence(stream_id)
        entry = _make_entry(stream_id, state, previous + 1)
        try:
            text = json.dumps(entry)
        except (TypeError, ValueError) as exc:
            raise CheckpointStoreError(
                f"checkpoint state for {stream_id!r} is not "
                f"JSON-serializable: {exc}"
            ) from exc
        self._put(stream_id, text)
        return previous + 1

    def load(self, stream_id: str) -> dict:
        """Return the latest checkpointed session state for one stream."""
        return self.entry(stream_id)["state"]

    def entry(self, stream_id: str) -> dict:
        """Return the full validated envelope (state + sequence + id)."""
        raw = self._get(stream_id)
        if raw is None:
            raise CheckpointStoreError(
                f"no checkpoint stored for stream id {stream_id!r}"
            )
        return self._decode(raw, stream_id)

    def _decode(self, raw: str, stream_id: str) -> dict:
        try:
            decoded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CheckpointStoreError(
                f"checkpoint for {stream_id!r} is not valid JSON "
                f"(truncated or corrupt write?): {exc}"
            ) from exc
        return validate_entry(decoded, source=f"checkpoint {stream_id!r}")

    def delete(self, stream_id: str) -> None:
        """Drop one stream's checkpoint; missing ids are an error."""
        if not self._discard(stream_id):
            raise CheckpointStoreError(
                f"no checkpoint stored for stream id {stream_id!r}"
            )

    def ids(self) -> "tuple[str, ...]":
        """Every stream id with a stored checkpoint, sorted."""
        return tuple(sorted(self._ids()))

    def __contains__(self, stream_id: str) -> bool:
        """Membership test on stored stream ids."""
        return self._get(stream_id) is not None

    def __len__(self) -> int:
        """Number of streams with a stored checkpoint."""
        return len(self._ids())

    # ------------------------------------------------------------------
    # backend primitives
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _put(self, stream_id: str, text: str) -> None:
        """Store ``text`` as the latest entry for ``stream_id``."""

    @abc.abstractmethod
    def _get(self, stream_id: str) -> "str | None":
        """Return the stored entry text, or ``None`` when absent."""

    @abc.abstractmethod
    def _discard(self, stream_id: str) -> bool:
        """Remove the entry; return whether one existed."""

    @abc.abstractmethod
    def _ids(self) -> "list[str]":
        """Stream ids currently stored (any order)."""

    # ------------------------------------------------------------------
    def _current_sequence(self, stream_id: str) -> int:
        raw = self._get(stream_id)
        if raw is None:
            return 0
        # A present-but-corrupt entry propagates its error: silently
        # restarting the sequence over garbage would hide data loss.
        return self._decode(raw, stream_id)["sequence"]


class MemoryCheckpointStore(CheckpointStore):
    """In-process checkpoint store (a dict of encoded entries).

    Holds entries as JSON text, not live dicts, so its accept/reject
    behaviour matches the durable backends exactly and stored states are
    immune to later mutation of the caller's dict.
    """

    def __init__(self) -> None:
        self._entries: "dict[str, str]" = {}
        #: stream_id -> (entry text, sequence) of this store's last save.
        self._saved: "dict[str, tuple[str, int]]" = {}

    def save(self, stream_id: str, state: dict) -> int:
        """Persist ``state`` (see :meth:`CheckpointStore.save`), noting
        the sequence next to the entry text it stored."""
        sequence = super().save(stream_id, state)
        self._saved[stream_id] = (self._entries[stream_id], sequence)
        return sequence

    def _current_sequence(self, stream_id: str) -> int:
        """The last save's sequence while its entry text is still the
        stored object; decoded from the stored entry otherwise: after a
        delete, or once something other than :meth:`save` wrote the
        entry (a chaos wrapper's torn write, say)."""
        text = self._get(stream_id)
        saved = self._saved.get(stream_id) if text is not None else None
        if saved is not None and saved[0] is text:
            return saved[1]
        return super()._current_sequence(stream_id)

    def _put(self, stream_id: str, text: str) -> None:
        """Store the entry text in the process-local dict."""
        self._entries[stream_id] = text

    def _get(self, stream_id: str) -> "str | None":
        """Read the entry text from the dict."""
        if not isinstance(stream_id, str):
            return None
        return self._entries.get(stream_id)

    def _discard(self, stream_id: str) -> bool:
        """Remove the entry from the dict."""
        self._saved.pop(stream_id, None)
        return self._entries.pop(stream_id, None) is not None

    def _ids(self) -> "list[str]":
        """All stream ids currently held."""
        return list(self._entries)


class DirectoryCheckpointStore(CheckpointStore):
    """Durable checkpoint store: one atomically-written file per stream.

    Each save writes ``<quoted-stream-id>.json`` via a temporary file in
    the same directory, ``fsync``, then ``os.replace`` — so readers (and
    post-crash recovery) only ever observe either the previous complete
    checkpoint or the new complete checkpoint, never a torn write.
    Stream ids are percent-encoded (``urllib.parse.quote`` with no safe
    characters), so ids containing separators or unicode round-trip.

    **Generations.**  The store keeps the last ``generations - 1``
    superseded checkpoints per stream as ``<name>.json.1`` (newest
    old) … ``<name>.json.N`` (oldest).  When the latest entry turns out
    corrupt — a torn write that slipped past the atomic rename (bad
    disk, injected fault) — :meth:`entry` quarantines the damaged file
    to ``<dir>/corrupt/``, promotes the newest intact generation back
    to latest, and returns it, counting the event in
    :attr:`fallbacks`/:attr:`quarantined` and logging loudly.  Callers
    observe a *valid but older* checkpoint, which the serving layer
    already treats like a crash-rewind: the client replays the gap, so
    exactly-once delivery holds.  With ``generations=1`` (or no intact
    generation left) corruption raises, as before.
    """

    def __init__(self, path: "str | Path", *, create: bool = True,
                 generations: int = 3) -> None:
        self._dir = Path(path)
        self._generations = max(1, int(generations))
        #: Times ``entry()`` fell back to an older generation.
        self.fallbacks = 0
        #: Corrupt files moved aside to ``<dir>/corrupt/``.
        self.quarantined = 0
        if self._dir.exists() and not self._dir.is_dir():
            raise CheckpointStoreError(
                f"checkpoint store path {self._dir} exists and is not "
                "a directory"
            )
        if not self._dir.exists():
            if not create:
                raise CheckpointStoreError(
                    f"checkpoint store directory {self._dir} does not exist"
                )
            try:
                self._dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # a file on the path, no permission...
                raise CheckpointStoreError(
                    f"cannot create checkpoint store directory "
                    f"{self._dir}: {exc}") from exc

    @property
    def path(self) -> Path:
        """The backing directory."""
        return self._dir

    @property
    def generations(self) -> int:
        """How many checkpoints (latest + older) are kept per stream."""
        return self._generations

    def _file_for(self, stream_id: str) -> Path:
        return self._dir / (quote(stream_id, safe="") + ".json")

    def _generation_file(self, stream_id: str, generation: int) -> Path:
        # Suffixed past ".json" so _ids() never mistakes a generation
        # for a live entry.
        return self._dir / (quote(stream_id, safe="")
                            + f".json.{generation}")

    def _rotate_generations(self, stream_id: str, target: Path) -> None:
        """Shift old generations up and snapshot the current latest.

        The latest file is *linked* (same inode) into generation 1
        rather than moved, so there is never an instant without a
        complete latest entry on disk; the subsequent ``os.replace`` of
        the new entry then atomically supersedes it.
        """
        if self._generations <= 1 or not target.exists():
            return
        for generation in range(self._generations - 1, 1, -1):
            source = self._generation_file(stream_id, generation - 1)
            if source.exists():
                os.replace(source, self._generation_file(stream_id,
                                                         generation))
        newest = self._generation_file(stream_id, 1)
        try:
            newest.unlink(missing_ok=True)
            os.link(target, newest)
        except OSError:  # pragma: no cover - filesystems without links
            shutil.copyfile(target, newest)

    def _put(self, stream_id: str, text: str) -> None:
        """Atomically replace the stream's file with the new entry."""
        target = self._file_for(stream_id)
        fd, tmp_name = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            self._rotate_generations(stream_id, target)
            os.replace(tmp_name, target)
        except OSError as exc:
            raise CheckpointStoreError(
                f"cannot write checkpoint for {stream_id!r} "
                f"under {self._dir}: {exc}"
            ) from exc
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
        # Make the rename itself durable where the platform allows it.
        try:
            dir_fd = os.open(self._dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(dir_fd)

    # -- corruption recovery ---------------------------------------------
    def _quarantine(self, path: Path) -> Path:
        """Move a damaged file into ``<dir>/corrupt/`` (kept for
        forensics); returns the quarantine destination."""
        corrupt_dir = self._dir / "corrupt"
        corrupt_dir.mkdir(exist_ok=True)
        destination = corrupt_dir / path.name
        counter = 0
        while destination.exists():
            counter += 1
            destination = corrupt_dir / f"{path.name}.{counter}"
        os.replace(path, destination)
        self.quarantined += 1
        return destination

    def _fall_back(self, stream_id: str,
                   error: CheckpointStoreError) -> dict:
        """Quarantine the corrupt latest and promote the newest intact
        generation; raises the original error when none survives.

        The latest file is only moved aside once an intact generation
        has been found — otherwise the stream would vanish from the
        store and an unrecoverable corruption would masquerade as a
        concurrent delete to callers that re-check membership."""
        for generation in range(1, self._generations):
            candidate = self._generation_file(stream_id, generation)
            try:
                raw = candidate.read_text()
            except FileNotFoundError:
                continue
            except OSError:  # pragma: no cover - unreadable generation
                continue
            try:
                entry = self._decode(raw, stream_id)
            except CheckpointStoreError:
                self._quarantine(candidate)
                continue
            # Promote: the generation file becomes the latest, and the
            # ones behind it shift down to close the gap.
            destination = self._quarantine(self._file_for(stream_id))
            os.replace(candidate, self._file_for(stream_id))
            for follower in range(generation + 1, self._generations):
                source = self._generation_file(stream_id, follower)
                if source.exists():
                    os.replace(source, self._generation_file(
                        stream_id, follower - generation))
            self.fallbacks += 1
            logger.error(
                "checkpoint for %r was corrupt (%s); quarantined to %s "
                "and fell back to generation %d (sequence %d) — the "
                "stream will rewind and replay",
                stream_id, error, destination, generation,
                entry["sequence"])
            return entry
        logger.error(
            "checkpoint for %r is corrupt (%s) and no intact generation "
            "remains; the damaged file is left in place", stream_id,
            error)
        raise error

    def entry(self, stream_id: str) -> dict:
        """The latest intact envelope, falling back a generation when
        the newest file is corrupt (see class docstring)."""
        try:
            return super().entry(stream_id)
        except CheckpointStoreError as error:
            if self._generations <= 1 \
                    or not self._file_for(stream_id).exists():
                raise
            return self._fall_back(stream_id, error)

    def _current_sequence(self, stream_id: str) -> int:
        raw = self._get(stream_id)
        if raw is None:
            return 0
        try:
            return self._decode(raw, stream_id)["sequence"]
        except CheckpointStoreError:
            # entry() quarantines the damage and recovers the newest
            # intact generation — or re-raises when there is none
            # (silently restarting the sequence over garbage would
            # hide data loss).
            return self.entry(stream_id)["sequence"]

    def _get(self, stream_id: str) -> "str | None":
        """Read the stream's file; absent file means absent entry."""
        if not isinstance(stream_id, str) or not stream_id:
            return None
        try:
            return self._file_for(stream_id).read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointStoreError(
                f"cannot read checkpoint for {stream_id!r}: {exc}"
            ) from exc

    def _discard(self, stream_id: str) -> bool:
        """Unlink the stream's file (and its retained generations)."""
        try:
            self._file_for(stream_id).unlink()
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise CheckpointStoreError(
                f"cannot delete checkpoint for {stream_id!r}: {exc}"
            ) from exc
        for generation in range(1, self._generations):
            try:
                self._generation_file(stream_id, generation).unlink()
            except FileNotFoundError:
                pass
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        return True

    def _ids(self) -> "list[str]":
        """Decode stream ids back from the directory's file names."""
        return [unquote(entry.name[:-len(".json")])
                for entry in self._dir.iterdir()
                if entry.is_file() and entry.name.endswith(".json")]


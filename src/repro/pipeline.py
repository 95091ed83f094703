"""Push-based streaming sessions with checkpoint/resume.

The paper's model is explicitly single-pass over an (almost) infinite
stream; this module is the library's production face for that model:

* :class:`ProtectionSession` — ``feed(chunk) -> marked chunk``: the
  rights owner pushes raw chunks in and forwards watermarked chunks
  downstream, never holding more than the finite window;
* :class:`DetectionSession` — ``feed(chunk)`` accumulates voting
  evidence incrementally; :meth:`DetectionSession.result` may be read
  at any moment (court evidence grows monotonically);
* **checkpoint/resume** — ``session.to_state()`` returns a plain
  JSON-compatible dict (window contents, zigzag continuation, label
  history, counters, voting buckets); ``Session.from_state(state, key)``
  rebuilds a session in another process/shard that continues the scan
  with *bit-identical* results.  The secret key is deliberately **not**
  part of the state: a leaked checkpoint must not leak the watermark.

Quickstart::

    session = ProtectionSession("101", key=b"k1")
    for chunk in chunks:
        forward(session.feed(chunk))
    state = session.to_state()            # migrate mid-stream ...
    session = ProtectionSession.from_state(state, key=b"k1")
    for chunk in more_chunks:
        forward(session.feed(chunk))
    forward(session.finish())
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.detector import DetectionResult, StreamDetector
from repro.core.embedder import EmbedReport, StreamWatermarker
from repro.core.params import WatermarkParams
from repro.core.serialize import (
    params_from_dict,
    params_to_dict,
    report_from_dict,
    report_to_dict,
)
from repro.core.watermark import to_bits
from repro.errors import ParameterError, ReproError, SessionStateError

_STATE_VERSION = 1

#: The exact top-level / config key sets each checkpoint kind may carry.
#: Unknown keys are rejected: a field this library does not understand
#: would otherwise be dropped silently, and a truncated or hand-edited
#: checkpoint must fail loudly rather than half-restore ("finished" and
#: "encoding_options" stay optional for backward compatibility).
_STATE_KEYS = {
    "protection-session": (frozenset({"format_version", "kind", "finished",
                                      "config", "scan", "report"}),
                           frozenset({"watermark_bits", "encoding",
                                      "encoding_options", "require_labels",
                                      "params"})),
    "detection-session": (frozenset({"format_version", "kind", "finished",
                                     "config", "scan", "votes"}),
                          frozenset({"wm_length", "encoding",
                                     "encoding_options", "require_labels",
                                     "transform_degree", "params"})),
}
_OPTIONAL_KEYS = frozenset({"finished", "encoding_options"})


def _check_state(state: dict, expected_kind: str) -> None:
    if not isinstance(state, dict):
        raise SessionStateError(
            f"session state must be a dict, got {type(state).__name__}"
        )
    if state.get("kind") != expected_kind:
        raise SessionStateError(
            f"expected state kind {expected_kind!r}, got {state.get('kind')!r}"
        )
    if "format_version" not in state:
        raise SessionStateError(
            "checkpoint has no format_version field (truncated or "
            "hand-edited state?)"
        )
    try:
        version = int(state["format_version"])
    except (TypeError, ValueError):
        raise SessionStateError(
            f"checkpoint format_version is not an integer: "
            f"{state['format_version']!r}"
        ) from None
    if version > _STATE_VERSION:
        raise SessionStateError(
            "checkpoint written by a newer library version "
            f"({state['format_version']} > {_STATE_VERSION})"
        )
    top_keys, config_keys = _STATE_KEYS[expected_kind]
    unknown = set(state) - top_keys
    if unknown:
        raise SessionStateError(
            f"unknown fields in {expected_kind} checkpoint: "
            f"{sorted(unknown)} (written by an incompatible producer?)"
        )
    missing = top_keys - _OPTIONAL_KEYS - set(state)
    if missing:
        raise SessionStateError(
            f"truncated {expected_kind} checkpoint: missing "
            f"{sorted(missing)}"
        )
    config = state["config"]
    if not isinstance(config, dict):
        raise SessionStateError(
            f"checkpoint config must be a dict, got {type(config).__name__}"
        )
    unknown = set(config) - config_keys
    if unknown:
        raise SessionStateError(
            f"unknown config fields in {expected_kind} checkpoint: "
            f"{sorted(unknown)}"
        )
    missing = config_keys - _OPTIONAL_KEYS - set(config)
    if missing:
        raise SessionStateError(
            f"truncated {expected_kind} checkpoint config: missing "
            f"{sorted(missing)}"
        )


@contextmanager
def _restore_guard(kind: str):
    """Convert stray restore-time errors into :class:`SessionStateError`.

    A malformed checkpoint must surface as a clean :mod:`repro.errors`
    exception at the API boundary — never a raw ``KeyError`` or
    ``TypeError`` from deep inside the scan-state plumbing.  Library
    errors (which already carry precise messages, e.g. the window
    capacity mismatch) pass through unchanged.
    """
    try:
        yield
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            IndexError) as exc:
        raise SessionStateError(
            f"malformed {kind} checkpoint: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


class ProtectionSession:
    """Streaming watermark embedding as a push-based session.

    A thin, checkpointable facade over :class:`StreamWatermarker`:
    chunks go in via :meth:`feed`, watermarked chunks come out (delayed
    by at most the finite window), :meth:`finish` drains the tail.

    Parameters mirror :class:`StreamWatermarker`; ``encoding`` must be an
    encoding *name* for the session to be checkpointable
    (strategy objects cannot be serialized).
    """

    _KIND = "protection-session"

    def __init__(self, watermark, key, *,
                 params: "WatermarkParams | None" = None,
                 encoding: str = "multihash",
                 monitor=None,
                 require_labels: bool = True,
                 encoding_options: "dict | None" = None) -> None:
        self._params = params or WatermarkParams()
        self._encoding_name = encoding if isinstance(encoding, str) else None
        self._encoding_options = dict(encoding_options or {})
        self._require_labels = require_labels
        self._monitor = monitor
        self._embedder = StreamWatermarker(
            watermark, key, params=self._params, encoding=encoding,
            monitor=monitor, require_labels=require_labels,
            encoding_options=self._encoding_options)
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def params(self) -> WatermarkParams:
        """The (frozen) watermark parameters this session runs with."""
        return self._params

    @property
    def report(self) -> EmbedReport:
        """Live embedding report (counters update as chunks are fed)."""
        return self._embedder.report

    @property
    def items_ingested(self) -> int:
        """Total stream items fed into this session so far."""
        return self._embedder.counters.items

    @property
    def items_released(self) -> int:
        """Output items released so far (ingested minus window-held).

        Survives checkpoint/restore, so a resumed session reports the
        same output offset the original had at checkpoint time — the
        deduplication anchor for network redelivery
        (:mod:`repro.server`).
        """
        return self._embedder.counters.items - self._embedder.items_pending

    @property
    def watermark_bits(self) -> "list[bool]":
        """The payload being embedded (defensive copy)."""
        return self._embedder.watermark_bits

    def encoding_stats(self) -> dict:
        """Lifetime encoding search/memo telemetry (see
        :meth:`repro.core.embedder.StreamWatermarker.encoding_stats`)."""
        return self._embedder.encoding_stats()

    def feed(self, chunk) -> np.ndarray:
        """Push one chunk; return the watermarked items released so far."""
        if self._finished:
            raise ParameterError("session already finished; start a new one")
        return self._embedder.process(chunk)

    def finish(self) -> np.ndarray:
        """Signal end-of-stream; return the remaining watermarked items."""
        self._finished = True
        return self._embedder.finalize()

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Serialize the session to a JSON-compatible checkpoint dict.

        The checkpoint holds configuration (parameters, encoding name,
        payload bits) and dynamic scan state — but **not** the secret
        key, which :meth:`from_state` requires again.
        """
        if self._encoding_name is None:
            raise SessionStateError(
                "sessions built around a strategy *object* cannot be "
                "checkpointed; use a registered encoding name"
            )
        if self._monitor is not None:
            raise SessionStateError(
                "sessions with a QualityMonitor attached cannot be "
                "checkpointed yet"
            )
        options = dict(self._encoding_options)
        # An encoding that draws random numbers resumes its generator
        # where it stopped, not from the seed it was given.
        rng_state = getattr(self._embedder.encoding, "rng_state", None)
        if rng_state is not None:
            options["rng"] = rng_state
        return {
            "format_version": _STATE_VERSION,
            "kind": self._KIND,
            "finished": self._finished,
            "config": {
                "watermark_bits": [int(b) for b in
                                   self._embedder.watermark_bits],
                "encoding": self._encoding_name,
                "encoding_options": options,
                "require_labels": self._require_labels,
                "params": params_to_dict(self._params),
            },
            "scan": self._embedder.scan_state(),
            "report": report_to_dict(self._embedder.report),
        }

    @classmethod
    def from_state(cls, state: dict, key) -> "ProtectionSession":
        """Rebuild a session from :meth:`to_state` output plus the key.

        The resumed session continues the scan exactly where the
        checkpointed one stopped: fed the same remaining chunks, it
        produces a bit-identical watermarked stream (integration-tested
        against the uninterrupted run).
        """
        _check_state(state, cls._KIND)
        with _restore_guard(cls._KIND):
            config = state["config"]
            session = cls(to_bits([int(b) for b in
                                   config["watermark_bits"]]),
                          key,
                          params=params_from_dict(config["params"]),
                          encoding=config["encoding"],
                          require_labels=bool(config["require_labels"]),
                          encoding_options=config.get("encoding_options")
                          or {})
            session._embedder.restore_scan_state(state["scan"])
            session._embedder.report = report_from_dict(state["report"])
            # The scanner and its report share one counters object;
            # re-tie them after both restores so future updates stay in
            # sync.
            session._embedder.counters = session._embedder.report.counters
            session._finished = bool(state.get("finished", False))
        return session


class DetectionSession:
    """Streaming watermark detection as a push-based session.

    A checkpointable facade over :class:`StreamDetector`: feed the
    (possibly transformed) stream chunk-by-chunk and read the voting
    evidence at any time via :meth:`result`.  :meth:`feed` passes the
    scanned items through (window-delayed), so a detection session can
    relay the stream it reads without consuming it.
    """

    _KIND = "detection-session"

    def __init__(self, wm_length, key, *,
                 params: "WatermarkParams | None" = None,
                 encoding: str = "multihash",
                 transform_degree: float = 1.0,
                 require_labels: bool = True,
                 encoding_options: "dict | None" = None) -> None:
        self._params = params or WatermarkParams()
        self._encoding_name = encoding if isinstance(encoding, str) else None
        self._encoding_options = dict(encoding_options or {})
        self._require_labels = require_labels
        self._transform_degree = float(transform_degree)
        self._detector = StreamDetector(
            wm_length, key, params=self._params, encoding=encoding,
            transform_degree=self._transform_degree,
            require_labels=require_labels,
            encoding_options=self._encoding_options)
        self._finished = False

    # ------------------------------------------------------------------
    @property
    def params(self) -> WatermarkParams:
        """The (frozen) watermark parameters this session runs with."""
        return self._params

    @property
    def items_ingested(self) -> int:
        """Total stream items fed into this session so far."""
        return self._detector.counters.items

    @property
    def items_released(self) -> int:
        """Pass-through items released so far (ingested minus held)."""
        return self._detector.counters.items - self._detector.items_pending

    def encoding_stats(self) -> dict:
        """Lifetime encoding telemetry; see
        :meth:`repro.core.detector.StreamDetector.encoding_stats`."""
        return self._detector.encoding_stats()

    def feed(self, chunk) -> np.ndarray:
        """Push one chunk; return the scanned items (pass-through)."""
        if self._finished:
            raise ParameterError("session already finished; start a new one")
        return self._detector.process(chunk)

    def finish(self) -> np.ndarray:
        """Signal end-of-stream; return the remaining scanned items."""
        self._finished = True
        return self._detector.finalize()

    def result(self) -> DetectionResult:
        """Snapshot of the voting evidence accumulated so far."""
        return self._detector.result()

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Serialize the session (scan state + voting buckets), key-free."""
        if self._encoding_name is None:
            raise SessionStateError(
                "sessions built around a strategy *object* cannot be "
                "checkpointed; use a registered encoding name"
            )
        return {
            "format_version": _STATE_VERSION,
            "kind": self._KIND,
            "finished": self._finished,
            "config": {
                "wm_length": self._detector.wm_length,
                "encoding": self._encoding_name,
                "encoding_options": dict(self._encoding_options),
                "require_labels": self._require_labels,
                "transform_degree": self._transform_degree,
                "params": params_to_dict(self._params),
            },
            "scan": self._detector.scan_state(),
            "votes": self._detector.vote_state(),
        }

    @classmethod
    def from_state(cls, state: dict, key) -> "DetectionSession":
        """Rebuild a session from :meth:`to_state` output plus the key.

        Resumed detection is bit-identical: the per-bit bias of the
        final :class:`DetectionResult` equals the uninterrupted run's.
        """
        _check_state(state, cls._KIND)
        with _restore_guard(cls._KIND):
            config = state["config"]
            session = cls(int(config["wm_length"]), key,
                          params=params_from_dict(config["params"]),
                          encoding=config["encoding"],
                          transform_degree=float(config["transform_degree"]),
                          require_labels=bool(config["require_labels"]),
                          encoding_options=config.get("encoding_options")
                          or {})
            session._detector.restore_scan_state(state["scan"])
            session._detector.restore_vote_state(state["votes"])
            session._finished = bool(state.get("finished", False))
        return session


#: Checkpoint ``kind`` tag -> session class, for kind-dispatched restore.
_SESSION_KINDS = {
    ProtectionSession._KIND: ProtectionSession,
    DetectionSession._KIND: DetectionSession,
}


def session_from_state(state: dict, key):
    """Rebuild whichever session type ``state`` was checkpointed from.

    Dispatches on the checkpoint's ``kind`` tag to
    :meth:`ProtectionSession.from_state` or
    :meth:`DetectionSession.from_state` — the restore entry point for
    callers (like :class:`repro.hub.StreamHub`) that recover a mixed
    population of sessions from one store.
    """
    if not isinstance(state, dict):
        raise SessionStateError(
            f"session state must be a dict, got {type(state).__name__}"
        )
    kind = state.get("kind")
    cls = _SESSION_KINDS.get(kind)
    if cls is None:
        raise SessionStateError(
            f"unknown session kind {kind!r}; expected one of "
            f"{sorted(_SESSION_KINDS)}"
        )
    return cls.from_state(state, key)


"""Push-based streaming sessions with checkpoint/resume, and pipelines.

The paper's model is explicitly single-pass over an (almost) infinite
stream; this module is the library's production face for that model:

* :class:`ProtectionSession` — ``feed(chunk) -> marked chunk``: the
  rights owner pushes raw chunks in and forwards watermarked chunks
  downstream, never holding more than the finite window;
* :class:`DetectionSession` — ``feed(chunk)`` accumulates voting
  evidence incrementally; :meth:`DetectionSession.result` may be read
  at any moment (court evidence grows monotonically);
* :class:`Pipeline` — composes stages (a :class:`Normalizer`, sessions,
  registry-resolved transforms, plain callables) into one push-based
  chain with correct end-of-stream draining;
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
from typing import Callable, Sequence

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
from repro.registry import REGISTRY
from repro.streams.normalize import Normalizer

_STATE_VERSION = 1
_EMPTY = np.asarray([], dtype=np.float64)

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

    Parameters mirror :class:`StreamWatermarker`; ``encoding`` must be a
    registered encoding *name* for the session to be checkpointable
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
    sit inside a :class:`Pipeline` without consuming the stream.
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


# ----------------------------------------------------------------------
# pipeline stages
# ----------------------------------------------------------------------
class FunctionStage:
    """Stateless stage: apply ``func`` to every chunk independently.

    Suitable for per-item maps and for rate-reducing transforms whose
    chunkwise application approximates the offline transform (e.g.
    sampling); it holds no state, so it drains nothing at end-of-stream.
    """

    def __init__(self, func: Callable, name: "str | None" = None) -> None:
        if not callable(func):
            raise ParameterError(f"stage function {func!r} is not callable")
        self._func = func
        self.name = name or getattr(func, "__name__", "function")

    def feed(self, chunk) -> np.ndarray:
        """Apply the wrapped function to one chunk."""
        return np.asarray(self._func(np.asarray(chunk, dtype=np.float64)),
                          dtype=np.float64)

    def finish(self) -> np.ndarray:
        """Stateless stages hold nothing back."""
        return _EMPTY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionStage({self.name})"


class TransformStage(FunctionStage):
    """Registry-resolved transform applied chunk-by-chunk.

    ``TransformStage("summarize", degree=5)`` builds the registered
    ``summarize`` transform and applies it per chunk.  Attack names
    resolve too, so adversarial pipelines read the same way.
    """

    def __init__(self, name: str, **options) -> None:
        registration = REGISTRY.find(name, kinds=("transform", "attack"))
        super().__init__(registration.obj(**options), name=registration.name)


class NormalizeStage:
    """Normalization (or denormalization) as a pipeline stage."""

    def __init__(self, normalizer: Normalizer,
                 direction: str = "normalize") -> None:
        if direction not in ("normalize", "denormalize"):
            raise ParameterError(
                f"direction must be 'normalize' or 'denormalize', "
                f"got {direction!r}"
            )
        self._normalizer = normalizer
        self._apply = (normalizer.normalize if direction == "normalize"
                       else normalizer.denormalize)
        self.name = direction

    def feed(self, chunk) -> np.ndarray:
        """Map one chunk between physical and normalized units."""
        return np.asarray(self._apply(chunk), dtype=np.float64)

    def finish(self) -> np.ndarray:
        """Normalization is stateless; nothing to drain."""
        return _EMPTY


class _ScannerStage:
    """Adapter giving raw scanners (process/finalize) the stage protocol."""

    def __init__(self, scanner) -> None:
        self._scanner = scanner
        self.name = type(scanner).__name__

    def feed(self, chunk) -> np.ndarray:
        """Delegate to the scanner's ``process``."""
        return self._scanner.process(chunk)

    def finish(self) -> np.ndarray:
        """Delegate to the scanner's ``finalize``."""
        return self._scanner.finalize()


class Pipeline:
    """Composable push-based chain of streaming stages.

    Stages are composed left-to-right; each chunk fed to the pipeline
    flows through every stage, and :meth:`finish` drains each stage's
    residue *through the remaining stages*, so windowed stages (the
    sessions) release their tails in order.

    Accepted stage forms, normalized automatically:

    * anything with ``feed``/``finish`` (sessions, other pipelines);
    * a :class:`Normalizer` (wrapped into :class:`NormalizeStage`);
    * a raw :class:`StreamWatermarker`/:class:`StreamDetector` (wrapped);
    * any plain ``values -> values`` callable (wrapped into
      :class:`FunctionStage`).

    >>> import numpy as np
    >>> from repro.pipeline import Pipeline, ProtectionSession
    >>> session = ProtectionSession("1", b"k")
    >>> pipeline = Pipeline([session])
    >>> _ = pipeline.feed(np.zeros(4)); tail = pipeline.finish()
    """

    def __init__(self, stages: Sequence) -> None:
        if not stages:
            raise ParameterError("Pipeline requires at least one stage")
        self._stages = [self._as_stage(stage) for stage in stages]

    @staticmethod
    def _as_stage(obj):
        if hasattr(obj, "feed") and hasattr(obj, "finish"):
            return obj
        if isinstance(obj, Normalizer):
            return NormalizeStage(obj)
        if hasattr(obj, "process") and hasattr(obj, "finalize"):
            return _ScannerStage(obj)
        if callable(obj):
            return FunctionStage(obj)
        raise ParameterError(
            f"object {obj!r} is not a pipeline stage (needs feed/finish, "
            "process/finalize, a Normalizer, or a callable)"
        )

    @property
    def stage_names(self) -> "list[str]":
        """Human-readable stage names, in flow order."""
        return [getattr(stage, "name", type(stage).__name__)
                for stage in self._stages]

    def feed(self, chunk) -> np.ndarray:
        """Push one chunk through every stage; return the final output."""
        out = np.asarray(chunk, dtype=np.float64)
        for stage in self._stages:
            out = np.asarray(stage.feed(out), dtype=np.float64)
        return out

    def finish(self) -> np.ndarray:
        """Drain every stage in order, cascading tails downstream."""
        tail = _EMPTY
        for stage in self._stages:
            fed = (np.asarray(stage.feed(tail), dtype=np.float64)
                   if tail.size else _EMPTY)
            drained = np.asarray(stage.finish(), dtype=np.float64)
            tail = np.concatenate([fed, drained]) if fed.size else drained
        return tail

    def run(self, values, chunk_size: int = 4096) -> np.ndarray:
        """Offline convenience: stream an array through the pipeline."""
        array = np.asarray(values, dtype=np.float64).ravel()
        if chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        pieces = [self.feed(array[start:start + chunk_size])
                  for start in range(0, array.size, chunk_size)]
        pieces.append(self.finish())
        return np.concatenate(pieces) if pieces else _EMPTY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipeline({' -> '.join(self.stage_names)})"

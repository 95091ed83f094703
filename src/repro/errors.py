"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single base class at an API boundary.  The hierarchy
mirrors the major subsystems: parameter validation, stream handling,
encoding search, and detection.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ParameterError(ReproError, ValueError):
    """A watermarking or stream parameter violates a documented invariant.

    Raised eagerly at construction time (e.g. by
    :class:`repro.core.params.WatermarkParams`) rather than deep inside the
    embedding loop, so misconfiguration surfaces immediately.
    """


class StreamError(ReproError):
    """A stream source or window operation was used incorrectly."""


class NormalizationError(StreamError, ValueError):
    """Values cannot be normalized (e.g. degenerate or empty range)."""


class EncodingError(ReproError):
    """A bit could not be embedded into a characteristic subset."""


class EncodingSearchExhausted(EncodingError):
    """The multi-hash (or quadratic-residue) search hit its iteration cap.

    The embedder treats this as a soft failure: the extreme is skipped and
    counted in :class:`repro.core.embedder.EmbedReport.search_failures`.
    """


class QualityConstraintViolated(ReproError):
    """A semantic quality constraint rejected a watermarking alteration.

    Carries the name of the violated constraint so the undo log can report
    which guarantee triggered the rollback (paper Sec 4.4).
    """

    def __init__(self, constraint_name: str, message: str = "") -> None:
        self.constraint_name = constraint_name
        text = message or f"quality constraint violated: {constraint_name}"
        super().__init__(text)


class DetectionError(ReproError):
    """The detector was asked for results it cannot produce."""


class SessionStateError(ReproError):
    """A session checkpoint could not be produced or restored.

    Raised by :meth:`repro.pipeline.ProtectionSession.to_state` /
    ``from_state`` (and the detection counterparts) when the session
    configuration is not serializable (e.g. a strategy *object* instead
    of an encoding name) or a state dict is malformed.
    """


class CheckpointStoreError(ReproError):
    """A checkpoint store operation failed or its payload is invalid.

    Raised by :mod:`repro.stores` backends on missing stream ids,
    unreadable/corrupt entries (truncated JSON, wrong envelope kind,
    newer format versions) and states that cannot be serialized — a
    corrupt checkpoint must fail loudly, never restore half a session.
    """


class HubError(ReproError):
    """A :class:`repro.hub.StreamHub` was driven incorrectly.

    Raised on routing errors (unknown or duplicate stream ids — the
    message carries a did-you-mean suggestion), on recovery without the
    stream's key, and on reading detection evidence from a protection
    stream.
    """


class ProtocolError(ReproError):
    """A network frame violates the ``repro.server`` wire protocol.

    Raised by :mod:`repro.server.protocol` on malformed frames:
    truncated or oversized length prefixes, invalid JSON, unknown frame
    types, missing or unknown fields, wrong field types, and payload
    arrays that do not decode — a corrupt frame must fail loudly, never
    half-apply.
    """


class RemoteError(ReproError):
    """The server answered a client request with an ERROR frame.

    Carries the server-reported error ``code`` (e.g. ``"unknown-stream"``,
    ``"flow"``, ``"busy"``) so SDK callers can branch on the failure
    class without parsing the message text.
    """

    def __init__(self, code: str, message: str = "") -> None:
        self.code = code
        super().__init__(message or code)


class KeyError_(ReproError, ValueError):
    """A secret key is malformed (empty, wrong type, or too short)."""

"""repro — resilient rights protection for sensor streams.

A from-scratch Python reproduction of Sion, Atallah & Prabhakar,
*Resilient Rights Protection for Sensor Streams* (VLDB 2004): resilient
watermarking of numeric data streams in a single-pass, finite-window
model, surviving sampling, summarization, segmentation and random
alteration attacks.

The public API has two layers:

* **Streaming sessions** (production face): push-based
  :class:`ProtectionSession` / :class:`DetectionSession` with
  checkpoint/resume; a multi-tenant :class:`StreamHub` routes
  interleaved traffic across many independently-keyed sessions,
  checkpointing them through pluggable
  :class:`CheckpointStore` backends and recovering bit-identically
  after a crash; :mod:`repro.server` serves hubs over TCP (``repro
  serve``) with a framed protocol, credit-based flow control and a
  reconnect-and-resume client SDK; :data:`REGISTRY` indexes the
  named components (encodings, transforms, attacks, generators,
  transports).
* **Offline conveniences** (paper-experiment face):
  :func:`watermark_stream`, :func:`detect_watermark` and
  :func:`detect_best` over in-memory arrays — thin wrappers over the
  same single-pass machinery.

Quickstart (offline)
--------------------
>>> import numpy as np
>>> from repro import WatermarkParams, watermark_stream, detect_watermark
>>> from repro.streams import TemperatureSensorGenerator
>>> from repro.transforms import uniform_random_sampling
>>>
>>> stream = TemperatureSensorGenerator(eta=60, seed=7).generate(6000)
>>> marked, report = watermark_stream(stream, watermark="1", key=b"k1")
>>> sampled = uniform_random_sampling(marked, degree=3, rng=0)
>>> result = detect_watermark(sampled, 1, key=b"k1", transform_degree=3.0)
>>> result.bias(0) > 0
True

Quickstart (streaming sessions)
-------------------------------
>>> from repro import ProtectionSession, DetectionSession
>>> session = ProtectionSession("1", key=b"k1")
>>> marked_chunks = [session.feed(chunk) for chunk in [stream[:3000]]]
>>> state = session.to_state()          # checkpoint, migrate anywhere ...
>>> session = ProtectionSession.from_state(state, key=b"k1")
>>> tail = [session.feed(stream[3000:]), session.finish()]

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.core.detector import (
    DetectionResult,
    StreamDetector,
    detect_best,
    detect_watermark,
)
from repro.core.embedder import EmbedReport, StreamWatermarker, watermark_stream
from repro.core.params import WatermarkParams
from repro.core.quality import (
    MaxAlteredFraction,
    MaxMeanDrift,
    MaxPerItemChange,
    MaxStdDrift,
    QualityMonitor,
)
from repro.core.quantize import Quantizer
from repro.core.watermark import bits_to_bytes, bits_to_text, to_bits
from repro.errors import (
    CheckpointStoreError,
    DetectionError,
    EncodingError,
    EncodingSearchExhausted,
    HubError,
    NormalizationError,
    ParameterError,
    ProtocolError,
    QualityConstraintViolated,
    RemoteError,
    ReproError,
    SessionStateError,
    StreamError,
)
from repro.hub import StreamHub, StreamStats, store_summary
from repro.pipeline import (
    DetectionSession,
    ProtectionSession,
    session_from_state,
)
from repro.registry import REGISTRY
from repro.stores import (
    CheckpointStore,
    DirectoryCheckpointStore,
    MemoryCheckpointStore,
)
from repro.streams.normalize import Normalizer
from repro.util.hashing import KeyedHasher

__version__ = "1.0.0"

__all__ = [
    "DetectionResult",
    "StreamDetector",
    "detect_best",
    "detect_watermark",
    "EmbedReport",
    "StreamWatermarker",
    "watermark_stream",
    "WatermarkParams",
    "MaxAlteredFraction",
    "MaxMeanDrift",
    "MaxPerItemChange",
    "MaxStdDrift",
    "QualityMonitor",
    "Quantizer",
    "bits_to_bytes",
    "bits_to_text",
    "to_bits",
    "DetectionError",
    "EncodingError",
    "EncodingSearchExhausted",
    "NormalizationError",
    "ParameterError",
    "QualityConstraintViolated",
    "ReproError",
    "SessionStateError",
    "StreamError",
    "CheckpointStoreError",
    "HubError",
    "ProtocolError",
    "RemoteError",
    "DetectionSession",
    "ProtectionSession",
    "session_from_state",
    "StreamHub",
    "StreamStats",
    "store_summary",
    "CheckpointStore",
    "DirectoryCheckpointStore",
    "MemoryCheckpointStore",
    "REGISTRY",
    "Normalizer",
    "KeyedHasher",
    "__version__",
]

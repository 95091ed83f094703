"""Stream substrate: model, finite window, normalization, generators, I/O.

This package implements the data/transform model of paper Sec 2.2: a
stream ``(x[.], ς)`` is an (almost) infinite timed sequence of values at
rate ``ς``; processing is single-pass through a finite window of ``$``
items; values are normalized into ``(-0.5, +0.5)`` before watermarking.
"""

from repro.streams.generators import (
    GaussianStream,
    RandomWalkStream,
    TemperatureSensorGenerator,
)
from repro.streams.io import load_stream_csv, load_stream_npy, save_stream_csv, save_stream_npy
from repro.streams.model import StreamMeta, chunked
from repro.streams.nasa import IRTF_CADENCE_SECONDS, IRTF_N_READINGS, synthetic_irtf_month
from repro.streams.normalize import Normalizer
from repro.streams.window import SlidingWindow

__all__ = [
    "GaussianStream",
    "RandomWalkStream",
    "TemperatureSensorGenerator",
    "load_stream_csv",
    "load_stream_npy",
    "save_stream_csv",
    "save_stream_npy",
    "StreamMeta",
    "chunked",
    "IRTF_CADENCE_SECONDS",
    "IRTF_N_READINGS",
    "synthetic_irtf_month",
    "Normalizer",
    "SlidingWindow",
]

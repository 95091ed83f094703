"""Stream data model (paper Sec 2.2).

A *simple data stream* is an (almost) infinite timed sequence of values
``x[t]`` produced by one or more data sources at rate ``ς`` values per
time unit.  After domain transforms such as sampling and summarization
the timestamp-to-value association is destroyed, so — exactly as the
paper's model states — the stream is ultimately *just a sequence of
values*; ``x[t]`` only distinguishes items, it does not promise that the
timestamp survives.

The library therefore represents stream content as 1-D float arrays (or
iterables of floats for unbounded sources) plus a :class:`StreamMeta`
carrying the rate and provenance.  All watermarking components consume
streams through the chunked single-pass iterator :func:`chunked`, which
enforces the finite-window discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import StreamError


@dataclass(frozen=True)
class StreamMeta:
    """Descriptive metadata for a stream.

    Parameters
    ----------
    rate_hz:
        The paper's ``ς`` — incoming data values per second.  The
        watermarking algorithms never rely on the actual rate (paper
        footnote 3); it is carried for the time-vs-confidence analysis of
        Sec 5 and for reporting.
    name:
        Human-readable provenance (e.g. ``"synthetic-irtf"``).
    units:
        Physical units of the raw values (e.g. ``"celsius"``).
    """

    rate_hz: float = 100.0
    name: str = "stream"
    units: str = ""

    def __post_init__(self) -> None:
        if not self.rate_hz > 0:
            raise StreamError(f"rate_hz must be positive, got {self.rate_hz}")


def chunked(source: Iterable[float], chunk_size: int) -> Iterator[np.ndarray]:
    """Yield successive ``chunk_size`` arrays from an unbounded source.

    This is the ingestion shape used by the streaming embedder/detector:
    they never see more than one chunk (plus their window) at a time, so
    memory stays bounded regardless of stream length.  The final chunk
    may be shorter.
    """
    if chunk_size <= 0:
        raise StreamError(f"chunk_size must be positive, got {chunk_size}")
    buffer: list[float] = []
    for value in source:
        buffer.append(float(value))
        if len(buffer) == chunk_size:
            yield np.asarray(buffer, dtype=np.float64)
            buffer = []
    if buffer:
        yield np.asarray(buffer, dtype=np.float64)

"""Helpers shared by the benchmark's workloads."""

from __future__ import annotations

import os
import statistics
from pathlib import Path

import numpy as np

from repro import WatermarkParams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Every workload embeds 3-bit payloads; ``phi`` must exceed the bit count.
PAYLOAD_BITS = 3
PARAMS = WatermarkParams(phi=6)


def rng_for(seed: int, *labels: int) -> np.random.Generator:
    """An independent generator for one input of one seeded run."""
    return np.random.default_rng(np.random.SeedSequence([seed, *labels]))


def payload_from(rng: np.random.Generator) -> str:
    """A random ``PAYLOAD_BITS``-bit payload such as ``"101"``."""
    return "".join(str(int(bit)) for bit in rng.integers(0, 2, PAYLOAD_BITS))


def key_from(rng: np.random.Generator) -> bytes:
    """Random key material."""
    return rng.bytes(16).hex().encode()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``nan`` for no samples."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    """Median; ``nan`` for no samples."""
    return float(statistics.median(values)) if len(values) else float("nan")


def mean(values) -> float:
    """Mean; ``nan`` for no samples."""
    return float(statistics.fmean(values)) if len(values) else float("nan")


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, ``nan`` when the base is 0."""
    return numerator / denominator if denominator else float("nan")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process, from procfs."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for pid {pid}")

"""Experiment harness reproducing every figure of the paper's Sec 6.

One module per figure; each exposes a ``run(scale=1.0)`` function
returning an :class:`repro.experiments.runner.ExperimentResult` whose
rows regenerate the figure's series.  The pytest-benchmark files under
``benchmarks/`` are thin wrappers that time these functions and print
the paper-vs-measured tables (recorded under ``benchmarks/results/``).
"""

from repro.experiments.config import (
    DEFAULT_KEY,
    irtf_params,
    synthetic_params,
)
from repro.experiments.datasets import (
    marked_irtf,
    marked_synthetic,
    reference_irtf,
    reference_synthetic,
)
from repro.experiments.runner import ExperimentResult, format_table

__all__ = [
    "DEFAULT_KEY",
    "irtf_params",
    "synthetic_params",
    "marked_irtf",
    "marked_synthetic",
    "reference_irtf",
    "reference_synthetic",
    "ExperimentResult",
    "format_table",
]

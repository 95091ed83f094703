"""Shared helpers for the benchmark harness.

Every bench runs its experiment exactly once through pytest-benchmark's
pedantic mode (the experiments are deterministic and internally sized;
statistical timing repetition would only re-run multi-second pipelines),
prints the paper-vs-measured table, and persists it under
``benchmarks/results/`` so the docs can cite stable artifacts.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.runner import ExperimentResult, format_table

RESULTS_DIR = Path(__file__).parent / "results"


def run_once(benchmark, func, *args, **kwargs) -> ExperimentResult:
    """Execute ``func`` once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


def report(result: ExperimentResult) -> str:
    """Print and persist an experiment table; return the rendered text."""
    text = format_table(result)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{result.experiment_id}.txt"
    path.write_text(text + "\n")
    print("\n" + text)
    return text


def column_is_decreasing(values, tolerance: float = 0.0) -> bool:
    """True when the series trends downward (allowing ``tolerance`` rises)."""
    rises = sum(1 for a, b in zip(values, values[1:]) if b > a + tolerance)
    return rises <= max(0, len(values) // 3)


def column_is_increasing(values, tolerance: float = 0.0) -> bool:
    """True when the series trends upward (allowing small dips)."""
    dips = sum(1 for a, b in zip(values, values[1:]) if b < a - tolerance)
    return dips <= max(0, len(values) // 3)

"""Bench: Figure 9 — watermark bias vs summarization / sampling degree."""

from __future__ import annotations

from _util import column_is_decreasing, report, run_once

from repro.experiments.fig09_wm_transforms import run_fig9a, run_fig9b


def test_fig9a_summarization(benchmark):
    result = run_once(benchmark, run_fig9a)
    report(result)
    biases = result.column("bias")
    assert column_is_decreasing(biases, tolerance=4.0)
    # Low degrees (within the guaranteed resilience) must be decisive.
    assert biases[0] >= 10
    assert result.rows[0]["confidence"] > 0.999


def test_fig9b_sampling(benchmark):
    result = run_once(benchmark, run_fig9b)
    report(result)
    biases = result.column("bias")
    assert column_is_decreasing(biases, tolerance=6.0)
    assert biases[0] >= 10
    # Every in-range degree keeps a positive bias (paper: 10..28).
    assert all(b > 0 for b in biases[:5])

"""Bench: Figure 7 — watermark survival under ε-attacks (real-data model)."""

from __future__ import annotations

from _util import column_is_decreasing, report, run_once

from repro.experiments.fig07_wm_epsilon import run_fig7a, run_fig7b


def test_fig7a_bias_surface(benchmark):
    result = run_once(benchmark, run_fig7a)
    report(result)
    clean = next(row["bias"] for row in result.rows
                 if row["tau"] == 0.0 and row["epsilon"] == 0.0)
    worst = min(row["bias"] for row in result.rows)
    # The surface must fall from its clean corner.
    assert clean >= 30
    assert worst < clean * 0.5


def test_fig7b_tau_slice(benchmark):
    result = run_once(benchmark, run_fig7b)
    report(result)
    biases = result.column("bias")
    assert column_is_decreasing(biases, tolerance=3.0)
    # The paper's headline: still decisive at tau = 50%, eps = 10%.
    final = result.rows[-1]
    assert final["tau"] == 0.5
    assert final["bias"] >= 5
    assert final["confidence"] > 0.95

"""Bench: Figure 11 — search cost growth and data-quality impact."""

from __future__ import annotations

import math

import pytest
from _util import column_is_decreasing, report, run_once

from repro.experiments.fig11_overhead_quality import run_fig11a, run_fig11b


@pytest.mark.slow  # exhaustive-search sweep, multi-second
def test_fig11a_search_cost(benchmark):
    result = run_once(benchmark, run_fig11a)
    report(result)
    expected = result.column("expected_random")
    # The paper's exponential: each resilience step multiplies the cost.
    growth = [b / a for a, b in zip(expected, expected[1:])]
    assert all(g >= 2.0 for g in growth)
    assert math.log10(expected[-1]) - math.log10(expected[0]) >= 4.0
    # The pruned search (future-work algorithm) stays orders of
    # magnitude below the exhaustive expectation at high resilience.
    pruned = result.column("measured_pruned")
    assert pruned[-1] > 0  # it succeeded where random search cannot
    assert pruned[-1] < expected[-1] / 100.0
    # Measured random cost tracks its expectation where we measured it.
    for row in result.rows:
        measured = row["measured_random"]
        if measured > 0 and row["resilience_g"] <= 3:
            assert measured < row["expected_random"] * 30


def test_fig11b_quality_impact(benchmark):
    result = run_once(benchmark, run_fig11b)
    report(result)
    mean_drift = result.column("mean_drift_pct")
    std_drift = result.column("std_drift_pct")
    altered = result.column("altered_items")
    # Paper bounds: < 0.21% mean drift, < 0.27% std drift.
    assert max(mean_drift) < 0.21
    assert max(std_drift) < 0.27
    # Larger phi selects fewer extremes => fewer altered items.
    assert column_is_decreasing(altered, tolerance=10)

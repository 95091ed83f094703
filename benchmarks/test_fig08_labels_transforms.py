"""Bench: Figure 8 — label resilience under sampling / summarization."""

from __future__ import annotations

from _util import column_is_increasing, report, run_once

from repro.experiments.fig08_labels_transforms import run_fig8a, run_fig8b


def test_fig8a_label_size_fragility(benchmark):
    result = run_once(benchmark, run_fig8a)
    report(result)
    alterations = result.column("labels_altered_pct")
    # Larger labels are more fragile under sampling.
    assert column_is_increasing(alterations, tolerance=5.0)
    assert alterations[-1] >= alterations[0]


def test_fig8b_summarization_degradation(benchmark):
    result = run_once(benchmark, run_fig8b)
    report(result)
    alterations = result.column("labels_altered_pct")
    assert column_is_increasing(alterations, tolerance=8.0)
    # Paper: even deep summarization preserves a usable share of labels.
    assert alterations[-1] < 100.0

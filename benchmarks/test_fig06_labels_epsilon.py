"""Bench: Figure 6 — label alteration under ε-attacks."""

from __future__ import annotations

from _util import column_is_increasing, report, run_once

from repro.experiments.fig06_labels_epsilon import run_fig6a, run_fig6b


def test_fig6a_label_sizes(benchmark):
    result = run_once(benchmark, run_fig6a)
    report(result)
    small = [row["labels_altered_pct"] for row in result.rows
             if row["label_size"] == 10]
    large = [row["labels_altered_pct"] for row in result.rows
             if row["label_size"] == 25]
    # Paper shape 1: alteration grows with epsilon.
    assert column_is_increasing(small, tolerance=5.0)
    assert column_is_increasing(large, tolerance=5.0)
    # Paper shape 2: the smaller label size survives better on average.
    assert sum(small) / len(small) <= sum(large) / len(large) + 1.0


def test_fig6b_altered_fractions(benchmark):
    result = run_once(benchmark, run_fig6b)
    report(result)
    one_pct = [row["labels_altered_pct"] for row in result.rows
               if row["tau_pct"] == 1.0]
    two_pct = [row["labels_altered_pct"] for row in result.rows
               if row["tau_pct"] == 2.0]
    assert column_is_increasing(one_pct, tolerance=5.0)
    # More data altered => more labels corrupted (on average).
    assert sum(two_pct) / len(two_pct) >= sum(one_pct) / len(one_pct) - 1.0

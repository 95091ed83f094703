"""Bench: Figure 10 — segmentation and combined transforms."""

from __future__ import annotations

from _util import column_is_increasing, report, run_once

from repro.experiments.fig10_segmentation import run_fig10a, run_fig10b


def test_fig10a_segment_size(benchmark):
    result = run_once(benchmark, run_fig10a)
    report(result)
    biases = result.column("bias_mean")
    assert column_is_increasing(biases, tolerance=2.0)
    # Paper: a few thousand values already give a convincing proof.
    assert biases[-1] >= 10


def test_fig10b_combined_grid(benchmark):
    result = run_once(benchmark, run_fig10b)
    report(result)
    preserving = [row["bias"] for row in result.rows
                  if row["order"] == "summarize-then-sample"]
    destroying = [row["bias"] for row in result.rows
                  if row["order"] == "sample-then-summarize"]
    # Adjacency-preserving order reproduces the paper's survival.
    assert min(preserving) > -5
    assert sum(preserving) / len(preserving) >= 8
    # The adjacency-destroying order still survives at the mildest
    # corner but decays faster across the grid.
    assert destroying[0] >= 4
    assert sum(preserving) >= sum(destroying)

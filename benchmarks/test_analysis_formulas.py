"""Bench: Sec 5 worked examples — closed forms vs the paper's numbers."""

from __future__ import annotations

import math

from _util import report, run_once

from repro.experiments.analysis_tables import run_analysis_table


def test_sec5_worked_examples(benchmark):
    result = run_once(benchmark, run_analysis_table)
    report(result)
    for row in result.rows:
        paper = row["paper_value"]
        computed = row["computed"]
        # Within 15% of the paper's (rounded) figures, on a log scale for
        # the tiny probabilities.
        if paper < 1e-3:
            assert math.isclose(math.log10(computed), math.log10(paper),
                                rel_tol=0.15), row["quantity"]
        else:
            assert math.isclose(computed, paper, rel_tol=0.15), \
                row["quantity"]

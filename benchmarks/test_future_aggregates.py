"""Bench: paper Sec-7 future work — non-average summarization aggregates."""

from __future__ import annotations

from _util import report, run_once

from repro.experiments.future_aggregates import run_future_aggregates


def test_future_aggregates(benchmark):
    result = run_once(benchmark, run_future_aggregates)
    report(result)
    by_aggregate: dict[str, list[int]] = {}
    for row in result.rows:
        by_aggregate.setdefault(row["aggregate"], []).append(row["bias"])
    means = {name: sum(biases) / len(biases)
             for name, biases in by_aggregate.items()}
    # The average-based convention survives its own transform best...
    assert means["mean"] >= max(means["max"], means["min"],
                                means["median"]) - 2
    # ...but verbatim-member aggregates stay decisively above noise.
    assert means["max"] > 0
    assert means["min"] > 0

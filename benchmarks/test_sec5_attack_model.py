"""Bench: Sec-5 attack model — theory vs implementation."""

from __future__ import annotations

from _util import report, run_once

from repro.experiments.sec5_attack_model import run_sec5_attack_model


def test_sec5_attack_model(benchmark):
    result = run_once(benchmark, run_sec5_attack_model)
    report(result)
    for row in result.rows:
        # Theory is a floor (it ignores weakened-but-surviving votes and
        # the robust references); allow modest statistical slack below.
        assert row["measured_survival"] >= row["predicted_survival"] - 0.35
        # The attack must not be free either: survival is a fraction.
        assert row["measured_survival"] <= 1.15
    # Heavier attacks (smaller a1 / larger a2) hurt at least as much.
    by_config = {(row["a1"], row["a2"]): row["measured_survival"]
                 for row in result.rows}
    if (5, 0.5) in by_config and (2, 1.0) in by_config:
        assert by_config[(2, 1.0)] <= by_config[(5, 0.5)] + 0.1

"""Bench/ablation: encoding designs under their designed-for attacks.

DESIGN.md's ablation list:

* initial guarded-bit vs multi-hash under **summarization** — the reason
  Sec 4.3 exists;
* initial guarded-bit vs multi-hash and quadratic-residue under the
  **subset-consistency (bias-detection) attack** — the fingerprint Sec
  4.3 names;
* initial-with-value-positions vs labeled schemes under the
  **correlation attack** — the reason Sec 4.1 exists;
* full constraint set vs computation-reducing **active subset** —
  resilience/cost trade-off.
"""

from __future__ import annotations

import numpy as np
from _util import report, run_once

from repro.attacks.bias_detection import bias_detection_attack
from repro.attacks.correlation import correlation_attack
from repro.core.detector import detect_watermark
from repro.core.embedder import watermark_stream
from repro.experiments.config import DEFAULT_KEY, synthetic_params
from repro.experiments.datasets import reference_synthetic
from repro.experiments.runner import ExperimentResult
from repro.transforms.summarization import summarize


def _ablation_summarization() -> ExperimentResult:
    params = synthetic_params()
    stream = np.array(reference_synthetic(8000))
    result = ExperimentResult(
        experiment_id="ablation-encodings-summarization",
        title="encoding ablation under summarization (degree 3)",
        columns=["encoding", "clean_bias", "summarized_bias"],
        paper_expectation=("multi-hash survives summarization by design; "
                           "initial/quadres decay (Sec 3.2 vs 4.3)"))
    for encoding in ("multihash", "initial", "quadres"):
        marked, _ = watermark_stream(stream, "1", DEFAULT_KEY,
                                     params=params, encoding=encoding)
        clean = detect_watermark(marked, 1, DEFAULT_KEY, params=params,
                                 encoding=encoding)
        summarized = summarize(marked, 3)
        after = detect_watermark(summarized, 1, DEFAULT_KEY, params=params,
                                 encoding=encoding, transform_degree=3.0)
        result.add(encoding=encoding, clean_bias=clean.bias(0),
                   summarized_bias=after.bias(0))
    return result


#: Attack seeds of the bias-detection ablation, fixed before any run.
BIAS_ATTACK_SEEDS = (1, 2, 3, 4, 5)


def _ablation_bias_detection() -> ExperimentResult:
    params = synthetic_params()
    stream = np.array(reference_synthetic(8000))
    result = ExperimentResult(
        experiment_id="ablation-encodings-bias-detection",
        title="encoding ablation under the subset-consistency attack",
        columns=["encoding", "rng", "clean_bias", "attacked_bias",
                 "flagged_extremes"],
        paper_expectation=("the guarded-bit encoding's unanimous subsets "
                           "give the mark away; hash-targeted encodings "
                           "leave nothing to find (Sec 4.3)"))
    for encoding in ("initial", "multihash", "quadres"):
        marked, _ = watermark_stream(stream, "1", DEFAULT_KEY,
                                     params=params, encoding=encoding)
        clean = detect_watermark(marked, 1, DEFAULT_KEY, params=params,
                                 encoding=encoding)
        for seed in BIAS_ATTACK_SEEDS:
            attacked, attack_report = bias_detection_attack(marked,
                                                            rng=seed)
            after = detect_watermark(attacked, 1, DEFAULT_KEY,
                                     params=params, encoding=encoding)
            result.add(encoding=encoding, rng=seed,
                       clean_bias=clean.bias(0),
                       attacked_bias=after.bias(0),
                       flagged_extremes=attack_report.flagged_extremes)
    return result


def _ablation_labeling() -> ExperimentResult:
    params = synthetic_params()
    stream = np.array(reference_synthetic(24000))
    attack = dict(beta_guess=params.msb_bits, alpha_guess=params.lsb_bits,
                  rng=7, prominence=params.prominence, delta=params.delta,
                  bias_threshold=0.25, min_bucket=10)
    result = ExperimentResult(
        experiment_id="ablation-labeling-correlation",
        title="value-derived vs label-derived positions under the "
              "bucket-counting attack",
        columns=["scheme", "clean_bias", "attacked_bias", "flags"],
        paper_expectation=("the Sec-3.2 value-derived scheme collapses; "
                           "the Sec-4.1 labeled schemes survive"))
    schemes = [
        ("initial-value-positions",
         dict(encoding="initial", require_labels=False,
              encoding_options={"use_label_positions": False})),
        ("initial-label-positions", dict(encoding="initial")),
        ("multihash-labeled", dict(encoding="multihash")),
    ]
    for name, options in schemes:
        marked, _ = watermark_stream(stream, "1", DEFAULT_KEY,
                                     params=params, **options)
        attacked, attack_report = correlation_attack(marked.copy(),
                                                     **attack)
        clean = detect_watermark(marked, 1, DEFAULT_KEY, params=params,
                                 **options)
        broken = detect_watermark(attacked, 1, DEFAULT_KEY, params=params,
                                  **options)
        result.add(scheme=name, clean_bias=clean.bias(0),
                   attacked_bias=broken.bias(0),
                   flags=attack_report.positions_found)
    return result


def test_ablation_summarization(benchmark):
    result = run_once(benchmark, _ablation_summarization)
    report(result)
    rows = {row["encoding"]: row for row in result.rows}
    assert rows["multihash"]["summarized_bias"] >= \
        max(2, rows["quadres"]["summarized_bias"])
    assert rows["multihash"]["summarized_bias"] >= \
        rows["multihash"]["clean_bias"] * 0.3


def test_ablation_bias_detection(benchmark):
    result = run_once(benchmark, _ablation_bias_detection)
    report(result)
    rows = {}
    for row in result.rows:
        rows.setdefault(row["encoding"], []).append(row)
    initial = rows["initial"]
    assert np.median([row["attacked_bias"] for row in initial]) <= \
        initial[0]["clean_bias"] * 0.3
    for encoding in ("multihash", "quadres"):
        for row in rows[encoding]:
            assert row["attacked_bias"] >= row["clean_bias"] * 0.9, row


def test_ablation_labeling(benchmark):
    result = run_once(benchmark, _ablation_labeling)
    report(result)
    rows = {row["scheme"]: row for row in result.rows}
    vulnerable = rows["initial-value-positions"]
    labeled = rows["multihash-labeled"]
    assert vulnerable["attacked_bias"] <= vulnerable["clean_bias"] * 0.6
    assert labeled["attacked_bias"] >= labeled["clean_bias"] * 0.7

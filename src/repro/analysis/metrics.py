"""Measurement helpers behind the Sec-6 experiment figures.

* **label alteration %** (Figs 6, 8) — how many extreme labels change
  between an original stream and its attacked/transformed version;
* **mean/std drift** (Sec 6.4) — the data-quality impact of embedding.
"""

from __future__ import annotations

import numpy as np

from repro.core.extremes import find_major_extremes
from repro.core.labels import labels_for_extreme_values
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import ParameterError
from repro.util.validation import as_float_array


def labeled_major_extremes(values, params: WatermarkParams,
                           lambda_bits: "int | None" = None,
                           effective_sigma: "int | None" = None,
                           use_robust_reference: "bool | None" = None
                           ) -> "list[tuple[int, int | None]]":
    """(stream index, label) for every major extreme, in order.

    The index enables *aligned* label comparison across attacked or
    transformed copies, where insertions/deletions shift the extreme
    sequence (see :func:`label_alteration_aligned`).  ``lambda_bits``
    overrides the label size (the x-axis of Fig 8(a));
    ``effective_sigma`` overrides majorness (Sec-4.2 adjustment when the
    stream is known to be transformed); ``use_robust_reference`` chooses
    between subset-mean references and the paper's bare extreme values
    (default: follow ``params``).
    """
    array = as_float_array(values, "values")
    quantizer = Quantizer(params.value_bits, params.avg_extra_bits)
    sigma = effective_sigma if effective_sigma is not None else params.sigma
    robust = params.robust_extreme_value if use_robust_reference is None \
        else use_robust_reference
    majors = find_major_extremes(array, params.prominence, params.delta,
                                 sigma, params.majority_relaxation)
    if not majors:
        return []
    if robust:
        extreme_values = [
            float(np.mean(array[e.subset_start:e.subset_end + 1]))
            for e in majors]
    else:
        extreme_values = [e.value for e in majors]
    labels = labels_for_extreme_values(
        extreme_values,
        lambda_bits if lambda_bits is not None else params.lambda_bits,
        params.skip, quantizer, params.label_msb_bits)
    return list(zip((e.index for e in majors), labels))


def label_alteration_aligned(original: "list[tuple[int, int | None]]",
                             attacked: "list[tuple[int, int | None]]",
                             index_scale: float = 1.0,
                             tolerance: "float | None" = None) -> float:
    """Fraction of original labels not recovered, aligned by position.

    Each original major extreme is matched to the nearest attacked one
    within ``tolerance`` original-stream items (``index_scale`` maps
    attacked indices back to original coordinates, e.g. the transform
    degree for sampled/summarized streams).  A missing counterpart or a
    differing label counts as altered; warm-up (``None``) originals are
    skipped.  Defaults the tolerance to a quarter of the average
    extreme spacing.
    """
    defined = [(idx, label) for idx, label in original if label is not None]
    if not defined:
        raise ParameterError("original stream produced no defined labels")
    if tolerance is None:
        if len(original) > 1:
            spacing = (original[-1][0] - original[0][0]) / (len(original) - 1)
        else:
            spacing = 16.0
        tolerance = max(4.0, 0.25 * spacing)
    rescaled = [(index_scale * idx, label) for idx, label in attacked]
    altered = 0
    for idx, label in defined:
        candidates = [(abs(a_idx - idx), a_label)
                      for a_idx, a_label in rescaled
                      if abs(a_idx - idx) <= tolerance]
        if not candidates:
            altered += 1
            continue
        _, best_label = min(candidates, key=lambda pair: pair[0])
        if best_label != label:
            altered += 1
    return altered / len(defined)


def stream_stat_drift(original, marked) -> dict:
    """Mean/std impact of watermarking (Sec 6.4's data-quality metrics).

    Returns absolute drifts plus drifts relative to the original standard
    deviation (the scale-free form the paper's percentages correspond to
    on a normalized stream).
    """
    a = as_float_array(original, "original")
    b = as_float_array(marked, "marked")
    if a.size != b.size:
        raise ParameterError(
            f"streams differ in length ({a.size} vs {b.size})"
        )
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    std_a, std_b = float(np.std(a)), float(np.std(b))
    scale = std_a if std_a > 0 else 1.0
    return {
        "mean_original": mean_a,
        "mean_marked": mean_b,
        "mean_drift_abs": abs(mean_b - mean_a),
        "mean_drift_rel": abs(mean_b - mean_a) / scale,
        "std_original": std_a,
        "std_marked": std_b,
        "std_drift_abs": abs(std_b - std_a),
        "std_drift_rel": abs(std_b - std_a) / scale,
        "max_item_change": float(np.max(np.abs(a - b))),
    }

"""Core watermarking library — the paper's primary contribution.

Modules map to paper sections:

================================  ==========================================
module                            paper section
================================  ==========================================
:mod:`repro.core.params`          2.2 / 3.2 / 6 (parameters & invariants)
:mod:`repro.core.quantize`        2.2 (bit semantics of stream values)
:mod:`repro.core.extremes`        2.2 (extremes, ξ(ε, δ), majorness)
:mod:`repro.core.labels`          4.1 (labeling scheme)
:mod:`repro.core.degree`          4.2 (transform-degree estimation)
:mod:`repro.core.selection`       3.2 (hash-based selection)
:mod:`repro.core.encoding_initial`    3.2/3.3 (guarded-bit encoding)
:mod:`repro.core.encoding_multihash`  4.3 (multi-hash encoding)
:mod:`repro.core.encoding_quadres`    4.3 (quadratic-residue alternative)
:mod:`repro.core.embedder`        3.2 / Fig 5 (single-pass embedding)
:mod:`repro.core.detector`        3.3 / Fig 4 (voting detection)
:mod:`repro.core.quality`         4.4 (constraints + undo log)
:mod:`repro.core.confidence`      5 (court-time confidence math)
================================  ==========================================
"""

from repro.core.confidence import (
    confidence_from_bias,
    exact_bias_fp,
    fp_probability,
    fp_probability_degraded,
    min_segment_items,
    per_extreme_fp,
    seconds_to_confidence,
)
from repro.core.degree import adjusted_sigma, degree_from_rates, estimate_degree
from repro.core.detector import (
    DetectionResult,
    StreamDetector,
    detect_best,
    detect_watermark,
)
from repro.core.embedder import EmbedReport, StreamWatermarker, watermark_stream
from repro.core.encoding_factory import ENCODING_NAMES, build_encoding
from repro.core.encoding_initial import EmbedOutcome, InitialEncoding, Vote
from repro.core.encoding_multihash import (
    MultihashEncoding,
    active_pairs,
    convention_pattern,
    expected_search_iterations,
)
from repro.core.encoding_quadres import (
    QuadResEncoding,
    derive_prime,
    is_quadratic_residue,
    jacobi_symbol,
)
from repro.core.extremes import (
    Extreme,
    average_subset_size,
    characteristic_subset,
    estimate_eta,
    find_extremes,
    find_major_extremes,
    zigzag_pivots,
)
from repro.core.labels import StreamingLabeler, label_from_history, labels_for_extreme_values
from repro.core.parallel_detect import (
    DetectionTask,
    detect_watermark_spans,
    merge_results,
    run_tasks,
    split_spans,
)
from repro.core.params import WatermarkParams
from repro.core.quality import (
    Alteration,
    MaxAlteredFraction,
    MaxMeanDrift,
    MaxPerItemChange,
    MaxStdDrift,
    QualityMonitor,
    QualityStats,
)
from repro.core.quantize import Quantizer
from repro.core.selection import (
    bit_position_from_label,
    bit_position_from_value,
    select_watermark_bit,
    selection_index,
)
from repro.core.watermark import bits_to_bytes, bits_to_text, to_bits

__all__ = [
    "confidence_from_bias",
    "exact_bias_fp",
    "fp_probability",
    "fp_probability_degraded",
    "min_segment_items",
    "per_extreme_fp",
    "seconds_to_confidence",
    "adjusted_sigma",
    "degree_from_rates",
    "estimate_degree",
    "DetectionResult",
    "StreamDetector",
    "detect_best",
    "detect_watermark",
    "EmbedReport",
    "StreamWatermarker",
    "watermark_stream",
    "ENCODING_NAMES",
    "build_encoding",
    "EmbedOutcome",
    "InitialEncoding",
    "Vote",
    "MultihashEncoding",
    "active_pairs",
    "convention_pattern",
    "expected_search_iterations",
    "QuadResEncoding",
    "derive_prime",
    "is_quadratic_residue",
    "jacobi_symbol",
    "DetectionTask",
    "detect_watermark_spans",
    "merge_results",
    "run_tasks",
    "split_spans",
    "Extreme",
    "average_subset_size",
    "characteristic_subset",
    "estimate_eta",
    "find_extremes",
    "find_major_extremes",
    "zigzag_pivots",
    "StreamingLabeler",
    "label_from_history",
    "labels_for_extreme_values",
    "WatermarkParams",
    "Alteration",
    "MaxAlteredFraction",
    "MaxMeanDrift",
    "MaxPerItemChange",
    "MaxStdDrift",
    "QualityMonitor",
    "QualityStats",
    "Quantizer",
    "bit_position_from_label",
    "bit_position_from_value",
    "select_watermark_bit",
    "selection_index",
    "bits_to_bytes",
    "bits_to_text",
    "to_bits",
]


"""Analysis helpers: Sec-5 attack mathematics and experiment metrics."""

from repro.analysis.attack_math import (
    altered_pair_count,
    attack_success_probability,
    extra_data_fraction,
    prob_all_removed,
    weakening_factor,
)
from repro.analysis.metrics import (
    label_alteration_aligned,
    labeled_major_extremes,
    stream_stat_drift,
)

__all__ = [
    "altered_pair_count",
    "attack_success_probability",
    "extra_data_fraction",
    "prob_all_removed",
    "weakening_factor",
    "label_alteration_aligned",
    "labeled_major_extremes",
    "stream_stat_drift",
]

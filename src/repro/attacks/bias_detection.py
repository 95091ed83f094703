"""The subset-consistency (bias-detection) attack (paper Sec 4.3 intro).

"What prevents Mallory from identifying all the major extremes for which
there exists a majority of (possibly all) items in the characteristic
subset with a certain bit position set to the same identical value?" —
nothing, under the guarded-bit encoding: a whole subset agreeing on one
low bit (with zeroed neighbours, no less) is a loud statistical
signature.  This module implements that attack: scan extremes, find bit
positions where the subset agrees suspiciously, randomize them.

The multi-hash encoding survives by construction — its alterations are
hash-targeted, hence indistinguishable from noise, and no position-level
consistency exists to find.  ``benchmarks/test_ablation_encodings.py``
runs this attack against every encoding and gates both outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.extremes import find_extremes
from repro.core.quantize import Quantizer
from repro.errors import ParameterError
from repro.util import bitops
from repro.util.rng import make_rng
from repro.util.validation import as_float_array


@dataclass
class BiasDetectionReport:
    """Extremes and positions Mallory flagged as mark-carrying."""

    flagged_extremes: int = 0
    randomized_items: int = 0
    positions: list[tuple[int, int]] = field(default_factory=list)


def bias_detection_attack(values, alpha_guess: int = 16,
                          value_bits: int = 32,
                          agreement_threshold: float = 1.0,
                          min_subset: int = 3,
                          prominence: float = 0.02, delta: float = 0.003,
                          rng: "int | np.random.Generator | None" = None
                          ) -> tuple[np.ndarray, BiasDetectionReport]:
    """Randomize bit positions on which a subset fully agrees.

    ``agreement_threshold`` is the fraction of subset members that must
    share the bit value (1.0 = unanimous, the guarded encoding's
    signature).  Only positions whose *guard neighbours* are also
    consistently zero are flagged — Mallory looks for the exact
    fingerprint the initial encoding leaves.
    """
    array = as_float_array(values, "values").copy()
    if not 0.5 < agreement_threshold <= 1.0:
        raise ParameterError(
            f"agreement_threshold must be in (0.5, 1], got "
            f"{agreement_threshold}"
        )
    if min_subset < 2:
        raise ParameterError(f"min_subset must be >= 2, got {min_subset}")
    generator = make_rng(rng)
    quantizer = Quantizer(value_bits)
    report = BiasDetectionReport()
    for extreme in find_extremes(array, prominence, delta):
        size = extreme.subset_size
        if size < min_subset:
            continue
        q_subset = [quantizer.quantize(float(array[i]))
                    for i in range(extreme.subset_start,
                                   extreme.subset_end + 1)]
        flagged_here = False
        for position in range(1, alpha_guess - 1):
            ones = sum(bitops.get_bit(q, position) for q in q_subset)
            agreement = max(ones, size - ones) / size
            guards_zero = all(
                bitops.get_bit(q, position - 1) == 0
                and bitops.get_bit(q, position + 1) == 0
                for q in q_subset)
            if agreement >= agreement_threshold and guards_zero:
                flagged_here = True
                report.positions.append((extreme.index, position))
                for offset, idx in enumerate(range(extreme.subset_start,
                                                   extreme.subset_end + 1)):
                    q = bitops.with_bit(q_subset[offset], position,
                                        int(generator.integers(0, 2)))
                    q_subset[offset] = q
                    array[idx] = quantizer.dequantize(q)
                    report.randomized_items += 1
        if flagged_here:
            report.flagged_extremes += 1
    return array, report

"""Normalization of stream values into the paper's ``(-0.5, +0.5)`` range.

The paper assumes stream values normalized into ``(-0.5, +0.5)``
(Sec 2.2) and notes that linear changes — attack (A4), scaling the data
to exploit trends — are "taken care of by the initial normalization
step" (footnote 1).  :class:`Normalizer` makes that concrete: it maps a
physical value range affinely onto a sub-interval of ``(-0.5, 0.5)``,
remembers the transform so watermarked data can be mapped back to
physical units, and can *re-fit* on attacked data so that a scaled or
shifted copy of the stream normalizes to (approximately) the same
canonical form before detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import NormalizationError
from repro.util.validation import as_float_array

#: Fraction of the (-0.5, 0.5) interval actually used.  Keeping a small
#: margin guarantees strict inequality after round-trips and leaves
#: headroom for watermark perturbations near the range edges.
DEFAULT_MARGIN = 0.02


@dataclass(frozen=True)
class Normalizer:
    """Affine map between a physical range and normalized stream values.

    ``normalize(v) = (v - mid) / span * scale`` where ``mid`` and ``span``
    describe the physical range and ``scale = 1 - margin`` keeps values
    strictly inside ``(-0.5, 0.5)``.

    Use :meth:`fit` to construct one from data, or give explicit bounds
    (e.g. the 0–35 °C range of the IRTF temperature feed).
    """

    low: float
    high: float
    margin: float = DEFAULT_MARGIN

    def __post_init__(self) -> None:
        if not np.isfinite(self.low) or not np.isfinite(self.high):
            raise NormalizationError("bounds must be finite")
        if not self.high > self.low:
            raise NormalizationError(
                f"degenerate range [{self.low}, {self.high}]"
            )
        if not 0.0 < self.margin < 1.0:
            raise NormalizationError(
                f"margin must be in (0, 1), got {self.margin}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, values, margin: float = DEFAULT_MARGIN) -> "Normalizer":
        """Fit bounds from observed data.

        Re-fitting on a linearly transformed copy (A4 attack) recovers an
        equivalent normalizer, which is why detection is scale-invariant:
        ``Normalizer.fit(a * x + b).normalize(a * x + b)`` equals
        ``Normalizer.fit(x).normalize(x)`` up to floating-point error for
        ``a > 0``.
        """
        array = as_float_array(values, "values")
        low = float(np.min(array))
        high = float(np.max(array))
        if high == low:
            raise NormalizationError("cannot fit a constant stream")
        return cls(low=low, high=high, margin=margin)

    # ------------------------------------------------------------------
    @property
    def _scale(self) -> float:
        return (1.0 - self.margin) / (self.high - self.low)

    def normalize(self, values) -> np.ndarray:
        """Map physical values into ``(-0.5, 0.5)``.

        Values outside the fitted range are clipped to the range edge
        (still strictly inside the open interval thanks to the margin);
        this mirrors a sensor's saturation behaviour and keeps the
        quantizer's domain total.
        """
        array = np.asarray(values, dtype=np.float64)
        mid = 0.5 * (self.low + self.high)
        out = (array - mid) * self._scale
        half = 0.5 * (1.0 - self.margin)
        return np.clip(out, -half, half)

    def denormalize(self, values) -> np.ndarray:
        """Inverse of :meth:`normalize` (watermarked data back to units)."""
        array = np.asarray(values, dtype=np.float64)
        mid = 0.5 * (self.low + self.high)
        return array / self._scale + mid

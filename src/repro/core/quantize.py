"""Fixed-point quantization of normalized stream values.

The paper manipulates stream values at the bit level (``msb(x, b)``,
``lsb(x, b)``, "alter the least significant bits") without spelling out
the number representation.  We make it explicit: a normalized value
``v in (-0.5, +0.5)`` maps to an unsigned ``value_bits``-wide integer

    q = floor((v + 0.5) * 2^value_bits)

and back through the cell midpoint

    v = (q + 0.5) / 2^value_bits - 0.5.

The midpoint rule makes the round-trip exact (``quantize(dequantize(q))
== q``) and keeps every dequantized value exactly representable in an
IEEE double for ``value_bits <= 48``, which the multi-hash encoding's
average-key computation relies on (see :meth:`Quantizer.average_key`).

Average keys
------------
The multi-hash convention hashes sub-range averages ``m_ij``.  Averages
of ``k`` values live on a finer grid than the values themselves, so they
are keyed on ``value_bits + avg_extra_bits`` bits: a single unit change
in one member's quantized value moves the scaled average by
``2^avg_extra_bits / k >= 1`` for ``k <= 2^avg_extra_bits``, guaranteeing
the embedding search can steer every constrained average.

Out-of-range values
-------------------
Every map clamps in float space before converting to an integer, so a
value outside the representable range, ``±inf`` included, saturates to
the nearest end instead of overflowing.  Finite results equal
floor-then-clamp.  NaN still raises: ``ValueError`` from the scalar
maps' ``math.floor``, :class:`~repro.errors.StreamError` from
:meth:`Quantizer.quantize_array`.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from repro.errors import ParameterError, StreamError


class Quantizer:
    """Bidirectional map between normalized floats and b-bit integers."""

    def __init__(self, value_bits: int = 32, avg_extra_bits: int = 8) -> None:
        if not 8 <= value_bits <= 48:
            raise ParameterError(
                f"value_bits must be in [8, 48], got {value_bits}"
            )
        if avg_extra_bits < 1 or value_bits + avg_extra_bits > 52:
            raise ParameterError(
                "avg_extra_bits must be >= 1 with value_bits + avg_extra_bits "
                f"<= 52, got {avg_extra_bits}"
            )
        self._bits = value_bits
        self._extra = avg_extra_bits
        self._scale = float(1 << value_bits)
        self._avg_scale = float(1 << (value_bits + avg_extra_bits))
        self._max_q = (1 << value_bits) - 1
        self._avg_upper = (1 << (value_bits + avg_extra_bits)) - 1
        self._avg_upper_f = float(self._avg_upper)

    # ------------------------------------------------------------------
    @property
    def value_bits(self) -> int:
        """Width ``b(x)`` of a quantized value."""
        return self._bits

    @property
    def avg_key_bits(self) -> int:
        """Width of an average key (``value_bits + avg_extra_bits``)."""
        return self._bits + self._extra

    @property
    def resolution(self) -> float:
        """Normalized-value size of one quantization step."""
        return 1.0 / self._scale

    # ------------------------------------------------------------------
    def quantize(self, value: float) -> int:
        """Map one normalized value to its b-bit cell index.

        ``math.floor`` computes the exact same floor as ``np.floor`` on
        any finite double, without ufunc dispatch — this sits on the
        labeling/selection hot path.
        """
        return _clamped_floor((float(value) + 0.5) * self._scale,
                              self._max_q)

    def quantize_list(self, values: "list[float]") -> "list[int]":
        """:meth:`quantize` over a list of Python floats.

        For the dozen-item characteristic subsets of the embedding hot
        path this beats :meth:`quantize_array`, whose ufunc dispatch
        only pays off on larger inputs.
        """
        floor = math.floor
        scale = self._scale
        max_q = self._max_q
        # _clamped_floor, inlined: this is a per-item loop.
        return [0 if (x := (v + 0.5) * scale) < 0 else
                max_q if x > max_q else floor(x)
                for v in values]

    def quantize_array(self, values) -> np.ndarray:
        """Vectorized :meth:`quantize` (returns int64 array).

        Clamps before the int64 cast, which would overflow on ±inf and
        on finite values past the int64 range; NaN is rejected.
        """
        array = np.asarray(values, dtype=np.float64)
        if np.isnan(array).any():
            raise StreamError("values contains NaN")
        # Huge finite values scale to inf, which the clip saturates.
        with np.errstate(over="ignore"):
            cells = np.floor((array + 0.5) * self._scale)
        return np.clip(cells, 0, self._max_q).astype(np.int64)

    def dequantize(self, q: int) -> float:
        """Map a cell index back to its midpoint value."""
        if not 0 <= q <= self._max_q:
            raise ParameterError(
                f"quantized value {q} outside [0, {self._max_q}]"
            )
        return (q + 0.5) / self._scale - 0.5

    def dequantize_array(self, q_values) -> np.ndarray:
        """Vectorized :meth:`dequantize`."""
        q = np.asarray(q_values, dtype=np.int64)
        if q.size and (q.min() < 0 or q.max() > self._max_q):
            raise ParameterError("quantized values outside representable range")
        return (q + 0.5) / self._scale - 0.5

    # ------------------------------------------------------------------
    def msb(self, value: float, n_bits: int) -> int:
        """``msb(x, n)`` of the quantized value — the selection input.

        Fused like :meth:`abs_msb` (the clamp already guarantees
        ``bitops.msb``'s width invariant); runs per selection probe.
        """
        if n_bits <= 0:
            raise ParameterError(
                f"msb bit count must be positive, got {n_bits}"
            )
        q = _clamped_floor((float(value) + 0.5) * self._scale, self._max_q)
        if n_bits >= self._bits:
            return q
        return q >> (self._bits - n_bits)

    def abs_msb(self, value: float, n_bits: int) -> int:
        """``msb(abs(x), n)`` — the label-comparison input (Sec 4.1).

        Quantizing ``|v|`` through the same map keeps the comparison
        monotone in ``|v|``, which is all the labeling scheme needs.
        The quantize/shift chain is fused inline (the clamp guarantees
        the width invariant ``bitops.msb`` would re-check): this runs
        once per major extreme on the labeling hot path.
        """
        if n_bits <= 0:
            raise ParameterError(
                f"msb bit count must be positive, got {n_bits}"
            )
        q = _clamped_floor((abs(float(value)) + 0.5) * self._scale,
                           self._max_q)
        if n_bits >= self._bits:
            return q
        return q >> (self._bits - n_bits)

    # ------------------------------------------------------------------
    def average_key(self, values) -> int:
        """Deterministic integer key of a sub-range average ``m_ij``.

        Computed as ``floor((mean(values) + 0.5) * 2^(b + e))``.  Both the
        embedder (predicting what a summarizer will emit) and the detector
        (keying what it received) call this on IEEE doubles; for chunk
        sizes below numpy's pairwise-summation block the mean is
        bit-identical on both sides, so the keys agree exactly.
        """
        array = np.asarray(values, dtype=np.float64)
        n = array.size
        if n == 0:
            raise ParameterError("average_key of an empty range")
        if n < 8:
            # numpy's pairwise summation degenerates to a plain
            # left-to-right sum below 8 elements, so a Python
            # left-to-right sum over the same doubles is bit-identical —
            # and an order of magnitude cheaper for the short sub-ranges
            # the multi-hash search probes.  Not the builtin sum(): from
            # Python 3.12 it compensates float rounding.
            mean = reduce(add, array.tolist()) / n
        else:
            mean = float(np.mean(array))
        return _clamped_floor((mean + 0.5) * self._avg_scale, self._avg_upper)

    def run_keys(self, sums: "list[float]", length: int) -> "list[int]":
        """:meth:`average_key` of runs of ``length`` items, from their sums.

        The caller sums each run the way :meth:`average_key` does (left
        to right below 8 items); this divides by ``length`` and keys
        with the same float-space clamp, so ``±inf`` saturates and NaN
        raises ``ValueError``.
        """
        floor = math.floor
        scale = self._avg_scale
        upper = self._avg_upper
        upper_f = self._avg_upper_f
        # _clamped_floor, inlined: this is a per-average loop.
        return [0 if (x := (total / length + 0.5) * scale) < 0 else
                upper if x > upper_f else floor(x)
                for total in sums]

    @property
    def average_scale(self) -> float:
        """The ``2^(b + e)`` multiplier of the average-key map."""
        return float(self._avg_scale)

    @property
    def scale(self) -> float:
        """The ``2^b`` cell count of the value map (dequantize divisor)."""
        return float(self._scale)


def _clamped_floor(x: float, upper: int) -> int:
    """``min(max(floor(x), 0), upper)``, clamped in float space first.

    Bit-identical to floor-then-clamp for every finite ``x`` (``upper``
    is an integer, so flooring commutes with the clamp), and ``±inf``
    saturates instead of raising ``OverflowError``.  NaN fails both
    comparisons and raises ``ValueError`` in ``math.floor``, as before.
    """
    if x < 0:
        return 0
    if x > upper:
        return upper
    return math.floor(x)

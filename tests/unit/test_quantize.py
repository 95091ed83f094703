"""Unit and property tests for the fixed-point quantizer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.quantize import Quantizer
from repro.errors import ParameterError, StreamError

normalized = st.floats(min_value=-0.499, max_value=0.499,
                       allow_nan=False, allow_infinity=False)


def _single_key(q: Quantizer, value: float) -> int:
    """The average key of one item, from its definition:
    ``floor((v + 0.5) * 2^(b + e))`` clamped in float space to the key
    range, so ±inf saturates."""
    upper = 2**q.avg_key_bits - 1
    x = (value + 0.5) * 2.0**q.avg_key_bits
    return 0 if x < 0 else upper if x > upper else math.floor(x)


class TestConstruction:
    def test_rejects_tiny_width(self):
        with pytest.raises(ParameterError):
            Quantizer(value_bits=4)

    def test_rejects_mantissa_overflow(self):
        # value_bits + avg_extra_bits must stay within the double mantissa.
        with pytest.raises(ParameterError):
            Quantizer(value_bits=48, avg_extra_bits=8)

    def test_exposed_widths(self):
        q = Quantizer(32, 8)
        assert q.value_bits == 32
        assert q.avg_key_bits == 40
        assert q.resolution == pytest.approx(2.0 ** -32)


class TestRoundTrips:
    @given(st.integers(0, 2**32 - 1))
    def test_quantize_dequantize_exact(self, cell):
        """The midpoint rule makes q -> v -> q the identity."""
        q = Quantizer(32)
        assert q.quantize(q.dequantize(cell)) == cell

    @given(normalized)
    def test_dequantize_error_below_resolution(self, v):
        q = Quantizer(32)
        assert abs(q.dequantize(q.quantize(v)) - v) <= q.resolution

    @given(normalized, normalized)
    def test_quantization_is_monotone(self, a, b):
        q = Quantizer(24)
        if a <= b:
            assert q.quantize(a) <= q.quantize(b)

    def test_out_of_range_clipped(self):
        q = Quantizer(16)
        assert q.quantize(5.0) == 2**16 - 1
        assert q.quantize(-5.0) == 0

    def test_dequantize_rejects_out_of_range(self):
        q = Quantizer(16)
        with pytest.raises(ParameterError):
            q.dequantize(2**16)
        with pytest.raises(ParameterError):
            q.dequantize(-1)


class TestArrayForms:
    def test_array_matches_scalar(self):
        q = Quantizer(32)
        values = np.linspace(-0.49, 0.49, 101)
        array_result = q.quantize_array(values)
        scalar_result = [q.quantize(float(v)) for v in values]
        assert array_result.tolist() == scalar_result

    def test_dequantize_array_matches_scalar(self):
        q = Quantizer(32)
        cells = np.arange(0, 1000, 37)
        array_result = q.dequantize_array(cells)
        scalar_result = [q.dequantize(int(c)) for c in cells]
        assert np.array_equal(array_result, np.asarray(scalar_result))

    def test_dequantize_array_rejects_out_of_range(self):
        q = Quantizer(16)
        with pytest.raises(ParameterError):
            q.dequantize_array([0, 2**16])


class TestMsbHelpers:
    def test_msb_of_value(self):
        q = Quantizer(32)
        # v = 0 quantizes to mid-range => top bit set.
        assert q.msb(0.0, 1) == 1

    @given(normalized, normalized)
    def test_abs_msb_monotone_in_magnitude(self, a, b):
        q = Quantizer(32)
        if abs(a) <= abs(b):
            assert q.abs_msb(a, 16) <= q.abs_msb(b, 16)


class TestAverageKey:
    def test_singleton_key_matches_scalar_form(self):
        q = Quantizer(32, 8)
        v = q.dequantize(12345678)
        assert q.average_key([v]) == _single_key(q, v)

    def test_key_changes_with_single_lsb_step(self):
        """One quantization-step change in one member must move the key.

        This is the property that makes the multi-hash search able to
        steer every constrained average (Sec 4.3).
        """
        q = Quantizer(32, 8)
        members = [q.dequantize(2**31 + i) for i in range(5)]
        bumped = list(members)
        bumped[2] = q.dequantize(2**31 + 2 + 1)
        assert q.average_key(members) != q.average_key(bumped)

    def test_key_deterministic_across_slicing(self):
        """Embedder (1-D slice) and attacker (reshaped row) agree."""
        q = Quantizer(32, 8)
        rng = np.random.default_rng(5)
        data = q.dequantize_array(rng.integers(0, 2**32, size=30))
        flat_key = q.average_key(data[6:12])
        row = data[:30].reshape(5, 6)[1]
        assert q.average_key(row) == flat_key

    def test_empty_range_rejected(self):
        with pytest.raises(ParameterError):
            Quantizer(32).average_key([])

    def test_short_ranges_sum_in_numpys_order(self):
        """Left to right below 8 items, as numpy sums, on every Python:
        the builtin ``sum`` compensates from 3.12 and would give a mean
        of 0.25 here."""
        values = [0.75, 1e300, -1e300]
        q = Quantizer(32, 8)
        assert float(np.mean(values)) == 0.0
        assert q.average_key(values) == _single_key(q, 0.0)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=7))
    def test_run_keys_equal_average_key(self, values):
        q = Quantizer(24, 8)
        total = values[0]
        for value in values[1:]:
            total += value
        assert q.run_keys([total], len(values)) == [q.average_key(values)]


class TestOutOfRange:
    """Clamping happens in float space, so ±inf saturates like any
    out-of-range value, finite results keep floor-then-clamp, and NaN
    still raises."""

    INF = float("inf")

    def test_infinities_saturate(self):
        q = Quantizer(16, 8)
        top, avg_top = 2**16 - 1, 2**24 - 1
        for value, cell, avg_key in ((self.INF, top, avg_top),
                                     (-self.INF, 0, 0)):
            assert q.quantize(value) == cell
            assert q.quantize_list([value, 0.0]) == [cell, q.quantize(0.0)]
            assert q.msb(value, 4) == cell >> 12
            assert q.abs_msb(value, 4) == 0b1111
            assert q.average_key([value]) == avg_key
            assert q.average_key([0.1, value]) == avg_key
            assert q.average_key([value] * 9) == avg_key  # np.mean branch
            assert q.run_keys([value, 0.0], 3) == \
                [avg_key, _single_key(q, 0.0)]
            assert q.quantize_array([value, 1e300, -1e300]).tolist() == \
                [cell, top, 0]

    def test_nan_still_raises(self):
        q = Quantizer(16, 8)
        nan = float("nan")
        for call in (lambda: q.quantize(nan),
                     lambda: q.quantize_list([0.0, nan]),
                     lambda: q.msb(nan, 4),
                     lambda: q.abs_msb(nan, 4),
                     lambda: q.average_key([nan]),
                     lambda: q.average_key([0.1, nan]),
                     lambda: q.run_keys([0.0, nan], 2),
                     lambda: q.average_key([nan] * 9)):
            with pytest.raises(ValueError):
                call()
        with pytest.raises(StreamError):
            q.quantize_array([0.0, nan])

    @given(st.floats(min_value=-1e290, max_value=1e290))
    def test_finite_results_equal_floor_then_clamp(self, value):
        q = Quantizer(24, 8)

        def reference(x, upper):
            return min(max(math.floor(x), 0), upper)

        cell = reference((value + 0.5) * 2.0**24, 2**24 - 1)
        assert q.quantize(value) == cell
        assert q.quantize_list([value]) == [cell]
        assert q.msb(value, 10) == cell >> 14
        assert q.abs_msb(value, 10) == \
            reference((abs(value) + 0.5) * 2.0**24, 2**24 - 1) >> 14
        assert q.average_key([value]) == \
            reference((value + 0.5) * 2.0**32, 2**32 - 1)

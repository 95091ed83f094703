"""Validation tests for WatermarkParams (every documented invariant)."""

from __future__ import annotations

import pytest

from repro.core.params import WatermarkParams
from repro.errors import ParameterError


class TestDefaults:
    def test_defaults_valid(self):
        params = WatermarkParams()
        assert params.sigma == 3
        assert params.phi >= 2

    def test_immutability(self):
        params = WatermarkParams()
        with pytest.raises(AttributeError):
            params.sigma = 5  # type: ignore[misc]

    def test_with_updates_revalidates(self):
        params = WatermarkParams()
        updated = params.with_updates(phi=10)
        assert updated.phi == 10
        with pytest.raises(ParameterError):
            params.with_updates(phi=1)


class TestInvariants:
    @pytest.mark.parametrize("field,value", [
        ("value_bits", 4),
        ("value_bits", 64),
        ("msb_bits", 0),
        ("lsb_bits", 2),
        ("sigma", 0),
        ("delta", 0.0),
        ("delta", 0.6),
        ("prominence", 0.0),
        ("prominence", 1.5),
        ("majority_relaxation", 0.0),
        ("majority_relaxation", 1.5),
        ("phi", 1),
        ("lambda_bits", 1),
        ("skip", 0),
        ("label_msb_bits", 0),
        ("omega", 0),
        ("omega", 20),
        ("active_run_length", 0),
        ("max_subset_embed", 0),
        ("max_search_iterations", 0),
        ("window_size", 8),
        ("vote_threshold", -1),
    ])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ParameterError):
            WatermarkParams(**{field: value})

    def test_msb_plus_lsb_bounded_by_value_bits(self):
        with pytest.raises(ParameterError):
            WatermarkParams(value_bits=16, msb_bits=8, lsb_bits=12)

    def test_delta_bounded_by_msb_cell(self):
        # Sec 3.2: subset members must share their selection bits.
        with pytest.raises(ParameterError):
            WatermarkParams(msb_bits=8, delta=0.05)

    def test_prominence_must_exceed_delta(self):
        with pytest.raises(ParameterError):
            WatermarkParams(delta=0.02, prominence=0.01)

    def test_detect_subset_cap_at_least_embed_cap(self):
        with pytest.raises(ParameterError):
            WatermarkParams(max_subset_embed=10, max_subset_detect=5)

    def test_avg_key_must_fit_double_mantissa(self):
        with pytest.raises(ParameterError):
            WatermarkParams(value_bits=48, avg_extra_bits=8)


class TestDerived:
    def test_label_history(self):
        params = WatermarkParams(lambda_bits=16, skip=2)
        assert params.label_history == 30

    def test_payload_positions(self):
        assert WatermarkParams(lsb_bits=16).payload_positions == 14

    def test_max_alteration(self):
        params = WatermarkParams(value_bits=32, lsb_bits=16)
        assert params.max_alteration == pytest.approx(2.0 ** -16)

    def test_validate_for_watermark(self):
        params = WatermarkParams(phi=8)
        params.validate_for_watermark(4)  # phi > b(wm): fine
        with pytest.raises(ParameterError):
            params.validate_for_watermark(8)
        with pytest.raises(ParameterError):
            params.validate_for_watermark(0)

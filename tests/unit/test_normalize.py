"""Tests for normalization — including the A4 linear-attack invariance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NormalizationError
from repro.streams.normalize import Normalizer
from repro.transforms.linear import linear_transform


class TestConstruction:
    def test_degenerate_range_rejected(self):
        with pytest.raises(NormalizationError):
            Normalizer(low=1.0, high=1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NormalizationError):
            Normalizer(low=float("nan"), high=1.0)

    def test_bad_margin_rejected(self):
        with pytest.raises(NormalizationError):
            Normalizer(low=0.0, high=1.0, margin=0.0)

    def test_fit_constant_rejected(self):
        with pytest.raises(NormalizationError):
            Normalizer.fit([2.0, 2.0, 2.0])


class TestMapping:
    def test_output_strictly_inside_interval(self):
        n = Normalizer(low=0.0, high=35.0)
        out = n.normalize(np.linspace(0.0, 35.0, 1001))
        assert out.min() > -0.5
        assert out.max() < 0.5

    def test_clipping_outside_fitted_range(self):
        n = Normalizer(low=0.0, high=10.0)
        out = n.normalize([-5.0, 15.0])
        assert out[0] == pytest.approx(-0.49, abs=1e-9)
        assert out[1] == pytest.approx(0.49, abs=1e-9)

    def test_array_roundtrip(self):
        n = Normalizer(low=-3.0, high=7.0)
        values = np.linspace(-3.0, 7.0, 313)
        assert np.allclose(n.denormalize(n.normalize(values)), values)


class TestLinearAttackInvariance:
    """Re-normalization defeats A4 (paper footnote 1)."""

    @given(st.floats(0.2, 10.0), st.floats(-50.0, 50.0))
    def test_positive_scaling_invariant(self, scale, offset):
        rng = np.random.default_rng(42)
        data = rng.uniform(1.0, 30.0, size=500)
        attacked = linear_transform(data, scale=scale, offset=offset)
        original_form = Normalizer.fit(data).normalize(data)
        attacked_form = Normalizer.fit(attacked).normalize(attacked)
        assert np.allclose(original_form, attacked_form, atol=1e-9)

    def test_negative_scaling_not_invariant(self):
        """Documented limitation: sign flips swap minima and maxima."""
        rng = np.random.default_rng(42)
        data = rng.uniform(1.0, 30.0, size=500)
        attacked = linear_transform(data, scale=-1.0)
        original_form = Normalizer.fit(data).normalize(data)
        attacked_form = Normalizer.fit(attacked).normalize(attacked)
        assert not np.allclose(original_form, attacked_form, atol=1e-3)

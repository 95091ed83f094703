"""Tests for the synthetic stream generators (Sec-6 workload model)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.extremes import estimate_eta
from repro.errors import ParameterError
from repro.streams.generators import (
    GaussianStream,
    RandomWalkStream,
    TemperatureSensorGenerator,
)


class TestTemperatureSensor:
    def test_values_normalized(self):
        values = TemperatureSensorGenerator(seed=1).generate(5000)
        assert values.min() > -0.5
        assert values.max() < 0.5

    def test_deterministic_with_seed(self):
        a = TemperatureSensorGenerator(seed=9).generate(1000)
        b = TemperatureSensorGenerator(seed=9).generate(1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = TemperatureSensorGenerator(seed=1).generate(1000)
        b = TemperatureSensorGenerator(seed=2).generate(1000)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("eta", [40, 100, 200])
    def test_eta_calibration(self, eta):
        """Measured eta(sigma, delta) tracks the requested value.

        This is the generator's headline knob ("controllable fluctuating
        behavior", Sec 6); we accept a factor-2 band because majorness
        filtering and jitter move the measured value.
        """
        generator = TemperatureSensorGenerator(eta=eta, seed=5)
        values = generator.generate(eta * 120)
        measured = estimate_eta(values, prominence=0.05, delta=0.02, sigma=3)
        assert eta / 3.0 <= measured <= eta * 3.0

    @pytest.mark.parametrize("kwargs", [
        {"eta": 2},
        {"extreme_scale": 0.0},
        {"extreme_scale": 0.6},
        {"noise_std": -1.0},
        {"eta_jitter": 2.0},
        {"min_swing": 0.0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            TemperatureSensorGenerator(**kwargs)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ParameterError):
            TemperatureSensorGenerator(seed=1).generate(0)

    def test_meta_carries_rate(self):
        meta = TemperatureSensorGenerator(rate_hz=250.0, seed=1).meta()
        assert meta.rate_hz == 250.0


class TestGaussianStream:
    def test_clipped_to_normalized_interval(self):
        values = GaussianStream(std=0.5, seed=2).generate(5000)
        assert values.min() >= -0.495
        assert values.max() <= 0.495

    def test_moments_roughly_match(self):
        values = GaussianStream(mean=0.0, std=0.2, seed=2).generate(20000)
        assert abs(float(np.mean(values))) < 0.01
        assert abs(float(np.std(values)) - 0.2) < 0.02

    def test_rejects_bad_std(self):
        with pytest.raises(ParameterError):
            GaussianStream(std=0.0)


class TestRandomWalk:
    def test_values_bounded(self):
        values = RandomWalkStream(seed=4).generate(5000)
        assert values.min() >= -0.5
        assert values.max() <= 0.5

    def test_smoothing_reduces_roughness(self):
        rough = RandomWalkStream(seed=4, smoothing=1).generate(5000)
        smooth = RandomWalkStream(seed=4, smoothing=9).generate(5000)
        assert np.std(np.diff(smooth)) < np.std(np.diff(rough))

    @pytest.mark.parametrize("kwargs", [
        {"step_std": 0.0},
        {"reversion": 1.5},
        {"smoothing": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            RandomWalkStream(**kwargs)

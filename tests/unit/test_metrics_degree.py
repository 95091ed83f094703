"""Tests for analysis metrics and Sec-4.2 degree estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import labeled_major_extremes, stream_stat_drift
from repro.core.degree import adjusted_sigma, degree_from_rates, estimate_degree
from repro.core.extremes import average_subset_size
from repro.core.params import WatermarkParams
from repro.errors import DetectionError, ParameterError
from repro.streams.generators import TemperatureSensorGenerator
from repro.transforms.sampling import uniform_random_sampling
from repro.transforms.summarization import summarize

PARAMS = WatermarkParams()


@pytest.fixture(scope="module")
def stream():
    return TemperatureSensorGenerator(eta=100, seed=31).generate(10000)


class TestDegreeFromRates:
    def test_ratio(self):
        assert degree_from_rates(100.0, 25.0) == 4.0

    def test_rate_increase_rejected(self):
        with pytest.raises(ParameterError):
            degree_from_rates(50.0, 100.0)


class TestEstimateDegree:
    @pytest.mark.parametrize("degree", [2, 4])
    def test_sampling_degree_recovered(self, stream, degree):
        reference = average_subset_size(stream, PARAMS.prominence,
                                        PARAMS.delta)
        sampled = uniform_random_sampling(stream, degree, rng=1)
        estimated = estimate_degree(reference, sampled, PARAMS.prominence,
                                    PARAMS.delta)
        assert degree * 0.4 <= estimated <= degree * 2.5

    def test_summarization_degree_recovered(self, stream):
        reference = average_subset_size(stream, PARAMS.prominence,
                                        PARAMS.delta)
        summarized = summarize(stream, 3)
        estimated = estimate_degree(reference, summarized, PARAMS.prominence,
                                    PARAMS.delta)
        assert 1.2 <= estimated <= 7.0

    def test_untransformed_estimates_near_one(self, stream):
        reference = average_subset_size(stream, PARAMS.prominence,
                                        PARAMS.delta)
        estimated = estimate_degree(reference, stream, PARAMS.prominence,
                                    PARAMS.delta)
        assert estimated == pytest.approx(1.0, abs=0.01)

    def test_no_extremes_raises(self):
        with pytest.raises(DetectionError):
            estimate_degree(10.0, np.linspace(-0.4, 0.4, 100),
                            PARAMS.prominence, PARAMS.delta)

    def test_validation(self, stream):
        with pytest.raises(ParameterError):
            estimate_degree(0.0, stream, PARAMS.prominence, PARAMS.delta)


class TestAdjustedSigma:
    def test_floor_semantics(self):
        assert adjusted_sigma(3, 1.0) == 3
        assert adjusted_sigma(3, 2.0) == 1   # floor(1.5) = 1, inclusive
        assert adjusted_sigma(3, 3.0) == 1
        assert adjusted_sigma(8, 2.0) == 4

    def test_never_below_one(self):
        assert adjusted_sigma(3, 100.0) == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            adjusted_sigma(0, 1.0)
        with pytest.raises(ParameterError):
            adjusted_sigma(3, 0.5)


class TestLabelMetrics:
    def test_label_size_override(self, stream):
        short = [label for _, label in
                 labeled_major_extremes(stream, PARAMS, lambda_bits=5)]
        long = [label for _, label in
                labeled_major_extremes(stream, PARAMS, lambda_bits=20)]
        defined_short = [x for x in short if x is not None]
        defined_long = [x for x in long if x is not None]
        assert defined_short and defined_long
        assert all(x.bit_length() == 5 for x in defined_short)
        assert all(x.bit_length() == 20 for x in defined_long)
        # Shorter labels need less warm-up.
        assert short.index(defined_short[0]) < long.index(defined_long[0])


class TestStreamStatDrift:
    def test_no_drift_for_identical(self, stream):
        drift = stream_stat_drift(stream, stream)
        assert drift["mean_drift_abs"] == 0.0
        assert drift["std_drift_abs"] == 0.0
        assert drift["max_item_change"] == 0.0

    def test_detects_mean_shift(self, stream):
        drift = stream_stat_drift(stream, stream + 0.001)
        assert drift["mean_drift_abs"] == pytest.approx(0.001)

    def test_length_mismatch_rejected(self, stream):
        with pytest.raises(ParameterError):
            stream_stat_drift(stream, stream[:-1])

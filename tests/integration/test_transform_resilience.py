"""Resilience to the natural transforms A1–A4 (paper Sec 6.2/6.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import detect_watermark
from repro.transforms.linear import linear_transform
from repro.transforms.sampling import fixed_random_sampling, uniform_random_sampling
from repro.transforms.segmentation import segment
from repro.transforms.summarization import summarize
from tests.conftest import KEY


class TestSampling:
    @pytest.mark.parametrize("degree", [2, 3, 5, 8])
    def test_uniform_sampling_survived(self, marked_reference, params,
                                       degree):
        marked, _ = marked_reference
        sampled = uniform_random_sampling(marked, degree, rng=0)
        result = detect_watermark(sampled, 1, KEY, params=params,
                                  transform_degree=float(degree))
        assert result.bias(0) >= 15, f"degree {degree}"

    def test_extreme_sampling_below_8_percent(self, marked_reference,
                                              params):
        """The paper's headline: <8% of the stream, >97% confidence."""
        marked, _ = marked_reference
        sampled = uniform_random_sampling(marked, 13, rng=0)
        assert len(sampled) / len(marked) < 0.08
        result = detect_watermark(sampled, 1, KEY, params=params,
                                  transform_degree=13.0)
        assert result.confidence(0) > 0.97

    def test_fixed_sampling_survived(self, marked_reference, params):
        marked, _ = marked_reference
        sampled = fixed_random_sampling(marked, 4)
        result = detect_watermark(sampled, 1, KEY, params=params,
                                  transform_degree=4.0)
        assert result.bias(0) >= 12


class TestSummarization:
    @pytest.mark.parametrize("degree", [2, 3, 5])
    def test_summarization_survived(self, marked_reference, params, degree):
        """Degrees within the guaranteed resilience (active_run_length)."""
        marked, _ = marked_reference
        summarized = summarize(marked, degree)
        result = detect_watermark(summarized, 1, KEY, params=params,
                                  transform_degree=float(degree))
        assert result.bias(0) >= 10, f"degree {degree}"

    def test_paper_20_percent_summarization(self, marked_reference, params):
        """The paper's '20%' example: degree 5 keeps 1/5 of the items."""
        marked, _ = marked_reference
        summarized = summarize(marked, 5)
        result = detect_watermark(summarized, 1, KEY, params=params,
                                  transform_degree=5.0)
        assert result.confidence(0) > 0.99

    def test_degradation_beyond_guarantee(self, marked_reference, params):
        """Beyond active_run_length the bias decays toward noise —
        matching the paper's Fig 9(a) tail."""
        marked, _ = marked_reference
        strong = detect_watermark(summarize(marked, 3), 1, KEY,
                                  params=params, transform_degree=3.0)
        weak = detect_watermark(summarize(marked, 10), 1, KEY,
                                params=params, transform_degree=10.0)
        assert weak.bias(0) < strong.bias(0)


class TestSegmentation:
    def test_segment_detection(self, marked_reference, params):
        marked, _ = marked_reference
        piece = segment(marked, start=2500, length=3000)
        result = detect_watermark(piece, 1, KEY, params=params)
        assert result.bias(0) >= 10

    def test_bias_grows_with_segment_size(self, marked_reference, params):
        """Fig 10(a)'s monotone shape."""
        marked, _ = marked_reference
        biases = []
        for length in (1500, 3000, 6000):
            piece = segment(marked, start=500, length=length)
            result = detect_watermark(piece, 1, KEY, params=params)
            biases.append(result.bias(0))
        assert biases[0] <= biases[1] <= biases[2]
        assert biases[2] > biases[0]


class TestCombinedTransforms:
    def test_fig10b_sampling_plus_summarization(self, marked_reference,
                                                params):
        marked, _ = marked_reference
        attacked = summarize(uniform_random_sampling(marked, 2, rng=0), 2)
        result = detect_watermark(attacked, 1, KEY, params=params,
                                  transform_degree=4.0)
        # Random sampling destroys original adjacency before averaging,
        # so only the ~1/4 of summarized pairs that happen to average
        # adjacent originals still testify: survival is real but weaker
        # than either transform alone (compare Fig 10(b)'s drop from
        # Fig 9's individual-transform biases).
        assert result.bias(0) >= 4


class TestLinearChanges:
    def test_scaling_defeated_by_renormalization(self, reference_stream,
                                                 marked_reference, params):
        """A4: detect on a scaled copy after re-normalization."""
        marked, _ = marked_reference
        # Mallory maps the normalized stream to, say, Fahrenheit-like units.
        physical = linear_transform(marked, scale=40.0, offset=60.0)
        # The detector re-normalizes from the observed range: positive
        # affine maps are exactly invertible this way (footnote 1).
        recovered = (physical - 0.5 * (physical.min() + physical.max())) \
            / (physical.max() - physical.min()) * (marked.max() - marked.min()) \
            + 0.5 * (marked.max() + marked.min())
        assert np.allclose(recovered, marked, atol=1e-9)
        result = detect_watermark(recovered, 1, KEY, params=params)
        assert result.bias(0) >= 25

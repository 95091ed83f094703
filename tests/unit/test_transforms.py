"""Tests for the A1–A4 domain transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, StreamError
from repro.transforms.linear import linear_transform
from repro.transforms.sampling import fixed_random_sampling, uniform_random_sampling
from repro.transforms.segmentation import random_segment, segment
from repro.transforms.summarization import summarize

stream_strategy = st.lists(st.floats(-0.49, 0.49, allow_nan=False),
                           min_size=20, max_size=400).map(np.asarray)


class TestSampling:
    @given(stream_strategy, st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_output_length(self, values, degree, seed):
        out = uniform_random_sampling(values, degree, rng=seed)
        n_full = len(values) // degree
        remainder = len(values) - n_full * degree
        assert len(out) == n_full + (1 if remainder else 0)

    @given(stream_strategy, st.integers(1, 10), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_samples_come_from_their_chunks(self, values, degree, seed):
        out = uniform_random_sampling(values, degree, rng=seed)
        n_full = len(values) // degree
        for k in range(n_full):
            chunk = values[k * degree:(k + 1) * degree]
            assert out[k] in chunk

    def test_order_preserved_on_monotone_stream(self):
        values = np.linspace(-0.4, 0.4, 100)
        out = uniform_random_sampling(values, 5, rng=1)
        assert np.all(np.diff(out) > 0)

    def test_fixed_sampling_deterministic(self):
        values = np.arange(20, dtype=float) / 100
        out = fixed_random_sampling(values, 4)
        assert np.array_equal(out, values[::4])

    def test_degree_one_is_identity_copy(self):
        values = np.linspace(-0.4, 0.4, 10)
        out = uniform_random_sampling(values, 1, rng=0)
        assert np.array_equal(out, values)
        out[0] = 99.0
        assert values[0] != 99.0  # a copy, not a view

    def test_degree_validation(self):
        with pytest.raises(ParameterError):
            uniform_random_sampling([0.1, 0.2], 0)
        with pytest.raises(ParameterError):
            uniform_random_sampling([0.1, 0.2], 3)

    @pytest.mark.parametrize("values", [[0.1, float("nan")],
                                        np.zeros((2, 2))],
                             ids=["non-finite", "2d"])
    def test_malformed_stream_rejected(self, values):
        """A non-finite or multi-dimensional stream is refused, not
        sampled (the input check every transform shares)."""
        with pytest.raises(StreamError):
            uniform_random_sampling(values, 1)


class TestSummarization:
    def test_paper_definition_mean_of_chunks(self):
        out = summarize([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2)
        assert out.tolist() == [1.5, 3.5, 5.5]

    def test_partial_chunk_kept_by_default(self):
        out = summarize([1.0, 2.0, 3.0], 2)
        assert out.tolist() == [1.5, 3.0]

    def test_partial_chunk_dropped_on_request(self):
        out = summarize([1.0, 2.0, 3.0], 2, keep_partial=False)
        assert out.tolist() == [1.5]

    @given(stream_strategy, st.integers(1, 8))
    @settings(max_examples=50)
    def test_mean_preserved(self, values, degree):
        """Full-chunk summarization preserves the chunked mean exactly."""
        n_full = len(values) // degree
        if n_full == 0:
            return
        body = values[:n_full * degree]
        out = summarize(body, degree)
        assert np.mean(out) == pytest.approx(np.mean(body), abs=1e-12)

    @pytest.mark.parametrize("aggregate", ["min", "max", "median"])
    def test_future_work_aggregates(self, aggregate):
        values = [1.0, 5.0, 2.0, 8.0]
        out = summarize(values, 2, aggregate=aggregate)
        expected = {"min": [1.0, 2.0], "max": [5.0, 8.0],
                    "median": [3.0, 5.0]}[aggregate]
        assert out.tolist() == expected

    def test_unknown_aggregate(self):
        with pytest.raises(ParameterError):
            summarize([1.0, 2.0], 2, aggregate="mode")


class TestSegmentation:
    def test_segment_bounds(self):
        values = np.arange(10, dtype=float) / 100
        out = segment(values, 2, 4)
        assert np.array_equal(out, values[2:6])

    def test_segment_validation(self):
        values = np.arange(10, dtype=float)
        with pytest.raises(ParameterError):
            segment(values, 8, 5)
        with pytest.raises(ParameterError):
            segment(values, -1, 5)
        with pytest.raises(ParameterError):
            segment(values, 0, 0)

    @given(st.integers(0, 2**31), st.integers(1, 50))
    @settings(max_examples=30)
    def test_random_segment_is_contiguous_slice(self, seed, length):
        values = np.arange(100, dtype=float) / 1000
        out = random_segment(values, length, rng=seed)
        assert len(out) == length
        start = int(round(out[0] * 1000))
        assert np.array_equal(out, values[start:start + length])


class TestLinear:
    def test_scale_and_offset(self):
        out = linear_transform([1.0, 2.0], scale=2.0, offset=1.0)
        assert out.tolist() == [3.0, 5.0]

    def test_zero_scale_rejected(self):
        with pytest.raises(ParameterError):
            linear_transform([1.0], scale=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            linear_transform([1.0], scale=float("inf"))


"""Tests for extremes, characteristic subsets, majorness, zigzag scans."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extremes import (
    MAXIMUM,
    MINIMUM,
    Extreme,
    ZigzagState,
    average_subset_size,
    characteristic_subset,
    estimate_eta,
    find_extremes,
    find_major_extremes,
    zigzag_pivots,
)
from repro.errors import ParameterError
from repro.streams.generators import TemperatureSensorGenerator


def triangle_wave(n_periods: int = 5, half: int = 20,
                  amplitude: float = 0.4) -> np.ndarray:
    """Deterministic alternating ramps with known extreme positions."""
    up = np.linspace(-amplitude, amplitude, half, endpoint=False)
    down = np.linspace(amplitude, -amplitude, half, endpoint=False)
    return np.concatenate([np.concatenate([up, down])
                           for _ in range(n_periods)])


class TestZigzag:
    def test_triangle_extremes_found(self):
        wave = triangle_wave()
        pivots, _ = zigzag_pivots(wave, prominence=0.1)
        kinds = [k for _, k in pivots]
        # Strict alternation between maxima and minima.
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        assert len(pivots) >= 8

    def test_pivot_positions_on_triangle(self):
        wave = triangle_wave(n_periods=2, half=10)
        pivots, _ = zigzag_pivots(wave, prominence=0.1)
        maxima = [i for i, k in pivots if k == MAXIMUM]
        # The first full peak value (0.4) sits at index 10 (the start of
        # the descending ramp); the boundary minimum at index 0 must not
        # be reported.
        assert maxima[0] == 10
        assert (0, MINIMUM) not in pivots

    def test_small_wiggles_below_prominence_ignored(self):
        wave = triangle_wave()
        noisy = wave + 0.001 * np.sin(np.arange(len(wave)) * 2.0)
        clean_pivots, _ = zigzag_pivots(wave, prominence=0.1)
        noisy_pivots, _ = zigzag_pivots(noisy, prominence=0.1)
        assert len(noisy_pivots) == len(clean_pivots)

    def test_monotone_has_no_pivots(self):
        pivots, _ = zigzag_pivots(np.linspace(-0.4, 0.4, 100),
                                  prominence=0.05)
        assert pivots == []

    def test_prominence_must_be_positive(self):
        with pytest.raises(ParameterError):
            zigzag_pivots(np.zeros(4), prominence=0.0)

    @settings(max_examples=40)
    @given(st.integers(0, 2**31), st.integers(1, 6))
    def test_continuation_equals_whole_array_scan(self, seed, n_splits):
        """The streaming scan must reproduce the offline pivot sequence."""
        values = TemperatureSensorGenerator(eta=30, seed=seed).generate(1200)
        whole, _ = zigzag_pivots(values, prominence=0.05)
        state = ZigzagState.fresh()
        streamed: list[tuple[int, int]] = []
        boundaries = np.linspace(0, len(values), n_splits + 1, dtype=int)
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            pivots, state = zigzag_pivots(values[lo:hi], prominence=0.05,
                                          state=state, offset=int(lo))
            streamed.extend(pivots)
        assert streamed == whole


class TestCharacteristicSubset:
    def test_expands_within_delta(self):
        values = np.array([0.0, 0.38, 0.395, 0.4, 0.39, 0.37, 0.0])
        start, end = characteristic_subset(values, 3, delta=0.02)
        assert (start, end) == (2, 4)

    def test_wider_delta_wider_subset(self):
        values = np.array([0.0, 0.38, 0.395, 0.4, 0.39, 0.37, 0.0])
        narrow = characteristic_subset(values, 3, delta=0.01)
        wide = characteristic_subset(values, 3, delta=0.05)
        assert wide[0] <= narrow[0] and wide[1] >= narrow[1]

    def test_contiguity_gap_stops_expansion(self):
        # 0.4-plateau interrupted by a far value: expansion must stop
        # even though a later item is again within delta.
        values = np.array([0.399, 0.2, 0.4, 0.399, 0.398])
        start, end = characteristic_subset(values, 2, delta=0.02)
        assert start == 2  # the 0.399 at index 0 is NOT reachable

    def test_bounds_validation(self):
        with pytest.raises(ParameterError):
            characteristic_subset(np.zeros(3), 5, delta=0.1)
        with pytest.raises(ParameterError):
            characteristic_subset(np.zeros(3), 0, delta=0.0)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_subset_items_within_delta(self, seed):
        values = TemperatureSensorGenerator(eta=40, seed=seed).generate(800)
        for extreme in find_extremes(values, prominence=0.05, delta=0.02):
            subset = values[extreme.subset_start:extreme.subset_end + 1]
            assert np.all(np.abs(subset - extreme.value) < 0.02)
            assert extreme.subset_start <= extreme.index <= extreme.subset_end


class TestMajorness:
    def test_strict_majorness(self):
        extreme = Extreme(index=5, value=0.4, kind=MAXIMUM,
                          subset_start=3, subset_end=7)
        assert extreme.subset_size == 5
        assert extreme.is_major(sigma=5)
        assert not extreme.is_major(sigma=6)

    def test_relaxed_majorness(self):
        extreme = Extreme(index=5, value=0.4, kind=MAXIMUM,
                          subset_start=4, subset_end=7)
        # |xi| = 4 < sigma = 5, but 4 >= 5 * 0.7 (the paper's 70% rule).
        assert not extreme.is_major(sigma=5)
        assert extreme.is_major(sigma=5, relaxation=0.7)

    def test_major_filter(self):
        values = TemperatureSensorGenerator(eta=60, seed=12).generate(3000)
        all_extremes = find_extremes(values, prominence=0.05, delta=0.02)
        majors = find_major_extremes(values, prominence=0.05, delta=0.02,
                                     sigma=3)
        assert len(majors) <= len(all_extremes)
        assert all(e.subset_size >= 3 for e in majors)

    def test_invalid_majorness_args(self):
        extreme = Extreme(index=0, value=0.0, kind=MINIMUM,
                          subset_start=0, subset_end=0)
        with pytest.raises(ParameterError):
            extreme.is_major(sigma=0)
        with pytest.raises(ParameterError):
            extreme.is_major(sigma=1, relaxation=0.0)


class TestStreamStatistics:
    def test_average_subset_size_positive(self):
        values = TemperatureSensorGenerator(eta=60, seed=12).generate(3000)
        assert average_subset_size(values, prominence=0.05, delta=0.02) > 1.0

    def test_average_subset_size_no_extremes(self):
        assert average_subset_size(np.linspace(-0.4, 0.4, 50),
                                   prominence=0.05, delta=0.02) == 0.0

    def test_estimate_eta_inf_when_no_majors(self):
        assert estimate_eta(np.linspace(-0.4, 0.4, 50), prominence=0.05,
                            delta=0.02, sigma=3) == float("inf")

    def test_estimate_eta_scale(self):
        values = TemperatureSensorGenerator(eta=80, seed=12).generate(8000)
        measured = estimate_eta(values, prominence=0.05, delta=0.02, sigma=3)
        assert 20 < measured < 240

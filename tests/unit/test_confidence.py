"""Tests for the Sec-5 confidence mathematics — paper examples included."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.core.confidence import (
    confidence_from_bias,
    exact_bias_fp,
    fp_probability,
    fp_probability_degraded,
    min_segment_items,
    per_extreme_fp,
    seconds_to_confidence,
)
from repro.errors import ParameterError


class TestPerExtremeFp:
    def test_paper_full_set(self):
        # omega=1, a=5: 2^-15 per extreme (Sec 4.3's 32,000 computations).
        assert per_extreme_fp(5, 1) == pytest.approx(2.0 ** -15)

    def test_active_set_override(self):
        assert per_extreme_fp(5, 1, n_constrained=6) == pytest.approx(2.0 ** -6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            per_extreme_fp(0)
        with pytest.raises(ParameterError):
            per_extreme_fp(5, omega=0)


class TestFpProbability:
    def test_paper_example_is_negligible(self):
        """Sec 5's example: omega=1, a=5, rate=100 Hz, eta=50, t=2 s.

        The paper writes "phi = 20%" — reading the selection *fraction*
        rather than the modulus — which yields 20 carrier extremes in 2 s
        and Pfp = (2^-15)^20 ~ 0.  With the modulus reading (phi=1, every
        major extreme carries) the 2 seconds hold 4 carriers and Pfp =
        (2^-15)^4 = 2^-60: equally negligible in court.
        """
        fp = fp_probability(2.0, 100.0, 50.0, 1, 5, omega=1)
        assert fp == pytest.approx(2.0 ** -60)
        assert fp < 1e-17

    def test_degraded_paper_example(self):
        """Sec 5's limit case: 'roughly one in a million'.

        With only one surviving m_ij per extreme, each carrier is a fair
        coin under the null and Pfp = 2^-(carriers).  Twenty carriers
        (the paper's 2-second example) give ~1e-6.
        """
        fp = fp_probability_degraded(2.0, 100.0, 10.0, 1)
        assert fp == pytest.approx(2.0 ** -20)
        assert fp == pytest.approx(1e-6, rel=0.1)

    def test_monotone_in_time(self):
        fps = [fp_probability(t, 100.0, 50.0, 5, 5) for t in (1, 2, 4)]
        assert fps[0] > fps[1] > fps[2] >= 0

    def test_validation(self):
        with pytest.raises(ParameterError):
            fp_probability(0.0, 100.0, 50.0, 5, 5)
        with pytest.raises(ParameterError):
            fp_probability(1.0, -1.0, 50.0, 5, 5)


class TestBiasConfidence:
    def test_footnote5_rule(self):
        # "a detected watermark bias of 10 yields a false-positive
        #  probability of 1/2^10 ... confidence of roughly 99.9%".
        assert confidence_from_bias(10) == pytest.approx(1 - 2.0 ** -10)

    def test_nonpositive_bias_no_confidence(self):
        assert confidence_from_bias(0) == 0.0
        assert confidence_from_bias(-5) == 0.0

    def test_exact_tail_matches_enumeration(self):
        # n=6 fair-coin votes, bias >= 2 <=> at least 4 true votes.
        expected = sum(math.comb(6, k) for k in (4, 5, 6)) / 64
        assert exact_bias_fp(6, 2) == pytest.approx(expected)

    @pytest.mark.parametrize("n_votes, bias", [
        (1024, 1), (1024, 40), (1294, 100), (1294, 1294), (4001, 333)])
    def test_exact_tail_past_float_range(self, n_votes, bias):
        """More than 1023 votes: 2.0 ** n overflows, the exact tail must not.

        The reference is the correctly rounded rational tail.
        """
        k_min = math.ceil((n_votes + bias) / 2)
        tail = sum(math.comb(n_votes, k) for k in range(k_min, n_votes + 1))
        assert exact_bias_fp(n_votes, bias) == \
            float(Fraction(tail, 2 ** n_votes))

    def test_exact_tail_edge_cases(self):
        assert exact_bias_fp(10, 0) == 1.0
        assert exact_bias_fp(10, 11) == 0.0
        assert exact_bias_fp(0, 1) == 0.0

    def test_rule_of_thumb_exact_for_unanimous_votes(self):
        """The 2^-bias rule is exact when every vote is consistent.

        Footnote 5's scenario: bias B from exactly B votes means all B
        extremes testified the same way — probability 2^-B under the
        null.  With extra (split) votes the exact tail is larger, which
        is why the library exposes both forms.
        """
        for n in (5, 10, 20):
            assert exact_bias_fp(n, n) == pytest.approx(2.0 ** -n)
        assert exact_bias_fp(20, 10) > 2.0 ** -10

    def test_validation(self):
        with pytest.raises(ParameterError):
            exact_bias_fp(-1, 1)


class TestSegmentAndTime:
    def test_min_segment(self):
        # Sec 5: eta(sigma, delta) * % items.
        assert min_segment_items(100.0, 2) == 200.0

    def test_seconds_to_confidence_inverts_fp(self):
        seconds = seconds_to_confidence(0.999, 100.0, 50.0, 5, 5)
        fp = fp_probability(seconds, 100.0, 50.0, 5, 5)
        assert fp == pytest.approx(0.001, rel=0.05)

    def test_validation(self):
        with pytest.raises(ParameterError):
            min_segment_items(0.0, 2)
        with pytest.raises(ParameterError):
            seconds_to_confidence(1.5, 100.0, 50.0, 5, 5)

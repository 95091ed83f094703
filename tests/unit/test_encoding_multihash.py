"""Tests for the Sec-4.3 multi-hash encoding."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.encoding_initial import Vote
from repro.core.encoding_multihash import (
    MultihashEncoding,
    active_pairs,
    convention_pattern,
    expected_search_iterations,
)
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import EncodingSearchExhausted, ParameterError
from repro.transforms.summarization import summarize
from repro.util.hashing import KeyedHasher

PARAMS = WatermarkParams()
QUANTIZER = Quantizer(PARAMS.value_bits, PARAMS.avg_extra_bits)
HASHER = KeyedHasher(b"k1")


def make_subset(center: float = 0.31, size: int = 6) -> list[int]:
    return [QUANTIZER.quantize(center + (i - size // 2) * 5e-4)
            for i in range(size)]


class TestActivePairs:
    def test_full_set_size(self):
        # run_length >= size: the paper's a(a+1)/2 averages.
        assert len(active_pairs(5, 5)) == 15
        assert len(active_pairs(5, 99)) == 15

    def test_limited_run_length(self):
        # lengths 1..3 over 6 items: 6 + 5 + 4 = 15.
        assert len(active_pairs(6, 3)) == 15

    def test_pairs_are_contiguous_runs(self):
        for i, j in active_pairs(7, 4):
            assert 0 <= i <= j < 7
            assert j - i + 1 <= 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            active_pairs(0, 1)
        with pytest.raises(ParameterError):
            active_pairs(3, 0)


class TestExpectedIterations:
    def test_matches_paper_formula(self):
        # omega=1, a=5, full set: 2^15 ~ 32768 (the paper's example).
        assert expected_search_iterations(5, 5, 1) == 2.0 ** 15

    def test_exponential_in_run_length(self):
        previous = 0.0
        for g in range(1, 6):
            current = expected_search_iterations(6, g, 1)
            assert current > previous
            previous = current


class TestConventionPattern:
    def test_deterministic(self):
        assert convention_pattern(b"k", 123, 45, 1) == \
            convention_pattern(b"k", 123, 45, 1)

    def test_width(self):
        for omega in (1, 2, 4, 8):
            assert 0 <= convention_pattern(b"k", 999, 7, omega) < 2 ** omega

    def test_sensitive_to_all_inputs(self):
        base = convention_pattern(b"k", 123, 45, 8)
        assert any(convention_pattern(b"k", 123 + d, 45, 8) != base
                   for d in range(1, 10))
        assert any(convention_pattern(b"k", 123, 45 + d, 8) != base
                   for d in range(1, 10))
        assert any(convention_pattern(bytes([k]), 123, 45, 8) != base
                   for k in range(10))

    def test_roughly_uniform(self):
        ones = sum(convention_pattern(b"k", v, 1, 1) for v in range(2000))
        assert 850 < ones < 1150

    @pytest.mark.parametrize("algorithm", ["sha3_256", "blake2b", "crc32"])
    def test_rejects_what_the_encoding_rejects(self, algorithm):
        """The reference probe rejects what KeyedHasher (and so
        PatternProber and MultihashEncoding) rejects, with the same
        ParameterError."""
        with pytest.raises(ParameterError):
            KeyedHasher(b"k", algorithm)
        with pytest.raises(ParameterError):
            convention_pattern(b"k", 123, 45, 1, algorithm)

    @pytest.mark.parametrize("algorithm", ["md5", "sha1", "sha256", "sha512"])
    def test_probe_is_the_keyed_digest(self, algorithm):
        payload = (b"k" + (123).to_bytes(8, "big") + (45).to_bytes(8, "big")
                   + b"k")
        digest = hashlib.new(algorithm, payload).digest()
        assert convention_pattern(b"k", 123, 45, 16, algorithm) == \
            int.from_bytes(digest[-2:], "big")

    def test_vote_counts_what_the_pattern_reads(self):
        """At every ω, the rare all-ones and all-zeroes patterns wider
        than the last digest byte included."""
        tail = (5).to_bytes(8, "big")
        evidence = [(key.to_bytes(8, "big") + tail, 1 + key % 3)
                    for key in range(2048)]
        for omega in range(1, 17):
            encoding = MultihashEncoding(WatermarkParams(omega=omega),
                                         QUANTIZER, HASHER)
            mask = (1 << omega) - 1
            patterns = [convention_pattern(b"k1", key, 5, omega)
                        for key in range(2048)]
            assert encoding.vote(evidence) == Vote(
                n_true=sum(count for (_, count), pattern
                           in zip(evidence, patterns) if pattern == mask),
                n_false=sum(count for (_, count), pattern
                            in zip(evidence, patterns) if pattern == 0))


class TestEmbedDetect:
    @pytest.mark.parametrize("method", ["pruned", "random"])
    @pytest.mark.parametrize("bit", [True, False])
    def test_roundtrip(self, method, bit):
        params = PARAMS.with_updates(active_run_length=2)
        encoding = MultihashEncoding(params, QUANTIZER, HASHER,
                                     method=method, rng=3)
        subset = make_subset()
        outcome = encoding.embed(subset, 3, 17, bit)
        floats = QUANTIZER.dequantize_array(outcome.q_values)
        vote = encoding.detect(np.asarray(floats), 3, 17)
        assert vote.decision is bit

    def test_all_active_averages_agree_after_embedding(self):
        encoding = MultihashEncoding(PARAMS, QUANTIZER, HASHER, rng=3)
        subset = make_subset(size=6)
        outcome = encoding.embed(subset, 3, 29, True)
        floats = QUANTIZER.dequantize_array(outcome.q_values)
        vote = encoding.detect(np.asarray(floats), 3, 29)
        pairs = active_pairs(6, PARAMS.active_run_length)
        assert vote.n_true == len(pairs)
        assert vote.n_false == 0

    def test_alterations_confined_to_lsb(self):
        encoding = MultihashEncoding(PARAMS, QUANTIZER, HASHER, rng=3)
        subset = make_subset()
        outcome = encoding.embed(subset, 3, 17, True)
        for old, new in zip(subset, outcome.q_values):
            assert old >> PARAMS.lsb_bits == new >> PARAMS.lsb_bits

    def test_pruned_minimizes_distance(self):
        """Pruned search stays closer to the original than random."""
        params = PARAMS.with_updates(active_run_length=3)
        subset = make_subset(size=6)

        def total_distance(outcome):
            return sum(abs(a - b) for a, b in zip(subset, outcome.q_values))

        pruned = MultihashEncoding(params, QUANTIZER, HASHER,
                                   method="pruned", rng=3)
        random_search = MultihashEncoding(params, QUANTIZER, HASHER,
                                          method="random", rng=3)
        d_pruned = total_distance(pruned.embed(list(subset), 3, 17, True))
        d_random = total_distance(random_search.embed(list(subset), 3, 17,
                                                      True))
        assert d_pruned <= d_random

    def test_search_exhaustion_raises(self):
        params = PARAMS.with_updates(max_search_iterations=2,
                                     active_run_length=6)
        encoding = MultihashEncoding(params, QUANTIZER, HASHER, rng=3)
        with pytest.raises(EncodingSearchExhausted):
            encoding.embed(make_subset(size=6), 3, 17, True)

    def test_subset_trimmed_to_embed_cap(self):
        params = PARAMS.with_updates(max_subset_embed=4,
                                     active_run_length=2)
        encoding = MultihashEncoding(params, QUANTIZER, HASHER, rng=3)
        subset = make_subset(size=10)
        outcome = encoding.embed(subset, 5, 17, True)
        changed = [i for i, (a, b) in enumerate(zip(subset,
                                                    outcome.q_values))
                   if a != b]
        assert len(changed) <= 4

    def test_method_validation(self):
        with pytest.raises(ParameterError):
            MultihashEncoding(PARAMS, QUANTIZER, HASHER, method="magic")

    def test_stats_recorded(self):
        encoding = MultihashEncoding(PARAMS, QUANTIZER, HASHER, rng=3)
        encoding.embed(make_subset(), 3, 17, True)
        assert encoding.last_stats is not None
        assert encoding.last_stats.iterations >= 1
        assert encoding.last_stats.constraints > 0

    def test_stats_reset_when_search_raises(self):
        """Regression: a failed embed must not leave stale stats behind.

        ``embed`` clears ``last_stats`` on entry, so a caller that
        catches :class:`EncodingSearchExhausted` never reads the stats
        of an *earlier*, unrelated embed.
        """
        params = PARAMS.with_updates(max_search_iterations=20,
                                     active_run_length=6)
        encoding = MultihashEncoding(params, QUANTIZER, HASHER, rng=3)
        encoding.embed(make_subset(size=2), 0, 17, True)
        assert encoding.last_stats is not None
        with pytest.raises(EncodingSearchExhausted):
            encoding.embed(make_subset(size=6), 3, 17, True)
        assert encoding.last_stats is None


class TestSummarizationConsistency:
    """The core Sec-4.3 resilience property, at encoding level."""

    @pytest.mark.parametrize("degree", [2, 3])
    def test_summarized_chunks_still_testify(self, degree):
        params = PARAMS.with_updates(active_run_length=6)
        encoding = MultihashEncoding(params, QUANTIZER, HASHER, rng=5)
        subset = make_subset(size=6)
        outcome = encoding.embed(subset, 3, 41, True)
        floats = np.asarray(QUANTIZER.dequantize_array(outcome.q_values))
        # Summarize the subset itself: chunk averages ARE m_ij values.
        chunks = summarize(floats, degree=degree, keep_partial=False)
        vote = encoding.detect(chunks, 0, 41)
        assert vote.n_true > vote.n_false

    def test_unrelated_data_votes_are_balanced(self):
        encoding = MultihashEncoding(PARAMS, QUANTIZER, HASHER, rng=5)
        rng = np.random.default_rng(8)
        n_true = n_false = 0
        for trial in range(60):
            data = rng.uniform(-0.4, 0.4, size=6)
            vote = encoding.detect(data, 3, 41)
            n_true += vote.n_true
            n_false += vote.n_false
        total = n_true + n_false
        assert abs(n_true - n_false) < 0.25 * total

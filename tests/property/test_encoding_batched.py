"""Property tests: batched encoding hot paths == the scalar oracles.

The library batches the multi-hash search/detection and table-backs the
quadratic-residue prefix checks.  The seed's scalar code is kept
verbatim in ``tests/oracles.py`` (:class:`ScalarMultihash`,
:class:`ScalarQuadRes`); these tests pin the library's paths to it
bit-for-bit:

* multihash pruned + random embeds: identical chosen configuration,
  identical :class:`MultihashStats` (iterations, hash evaluations),
  identical ``EncodingSearchExhausted`` raise point *and message*, and
  — for the random method — an identical post-embed RNG stream
  position (downstream embeds consume the same generator);
* multihash detection: identical vote over ω up to 16 (patterns wider
  than one digest byte), runs up to 10 (the pairwise-mean branch of
  n >= 8), subsets beyond ``max_subset_detect`` (the trim), ±inf,
  out-of-range and repeated values (the payload counts), and subsets
  with a NaN average (+inf beside -inf), which abstain in both; and
  every voter of a key ring votes as its own scalar oracle;
* quadres embeds and detection: identical values, stats and votes, via
  the Jacobi-backed residue table vs Euler's criterion, detection also
  over ±inf and out-of-range values;
* :func:`jacobi_symbol` agrees with :func:`is_quadratic_residue` on the
  derived primes.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.detector import StreamDetector
from repro.core.encoding_initial import Vote
from repro.core.encoding_multihash import MultihashEncoding, active_pairs
from repro.core.encoding_quadres import (
    QuadResEncoding,
    derive_prime,
    is_quadratic_residue,
    jacobi_symbol,
)
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import EncodingSearchExhausted
from repro.streams import TemperatureSensorGenerator
from repro.transforms import uniform_random_sampling
from repro.util.hashing import KeyedHasher
from tests.oracles import ScalarMultihash, ScalarQuadRes

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

keys = st.binary(min_size=1, max_size=40)
labels = st.integers(min_value=0, max_value=2**31 - 1)
bits = st.booleans()


@st.composite
def multihash_cases(draw):
    """A full (params, quantizer, subset) configuration for one embed."""
    lsb_bits = draw(st.integers(min_value=4, max_value=16))
    value_bits = draw(st.integers(min_value=16, max_value=32))
    params = WatermarkParams(
        lsb_bits=lsb_bits,
        omega=draw(st.integers(min_value=1, max_value=3)),
        active_run_length=draw(st.integers(min_value=1, max_value=4)),
        max_search_iterations=draw(st.integers(min_value=50,
                                               max_value=2000)),
    )
    quantizer = Quantizer(value_bits=value_bits,
                          avg_extra_bits=draw(st.integers(min_value=2,
                                                          max_value=8)))
    size = draw(st.integers(min_value=1, max_value=10))
    q_subset = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << value_bits) - 1),
        min_size=size, max_size=size))
    offset = draw(st.integers(min_value=0, max_value=size - 1))
    return params, quantizer, q_subset, offset


detect_keys = st.binary(min_size=1, max_size=100)

INF = float("inf")

#: Received values: quantization-cell midpoints, anything in range, out
#: of range, and infinite.
received_values = st.one_of(
    st.integers(min_value=0, max_value=2**16 - 1).map(
        lambda q: (q + 0.5) / 2**16 - 0.5),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(allow_nan=False),
    st.sampled_from([INF, -INF, 1e300, -1e300, 0.75]))


@st.composite
def multihash_detect_cases(draw):
    """(params, quantizer, received subset, offset) for one detection."""
    max_subset_detect = draw(st.sampled_from([8, 12, 16])
                             | st.integers(min_value=1, max_value=20))
    params = WatermarkParams(
        omega=draw(st.integers(min_value=1, max_value=16)),
        active_run_length=draw(st.sampled_from([8, 10])
                               | st.integers(min_value=1, max_value=10)),
        max_subset_embed=min(12, max_subset_detect),
        max_subset_detect=max_subset_detect,
    )
    value_bits = draw(st.integers(min_value=16, max_value=32))
    quantizer = Quantizer(value_bits=value_bits,
                          avg_extra_bits=draw(st.integers(min_value=2,
                                                          max_value=8)))
    size = draw(st.integers(min_value=1, max_value=20))
    pool = draw(st.lists(received_values, min_size=1, max_size=size))
    if draw(st.booleans()):
        # Few distinct values: many averages share a payload.
        received = draw(st.lists(st.sampled_from(pool[:3]),
                                 min_size=size, max_size=size))
    else:
        received = (pool * size)[:size]
    offset = draw(st.integers(min_value=0, max_value=size - 1))
    return params, quantizer, np.asarray(received, dtype=np.float64), offset


#: Summed right to left, this run's mean keys one higher than summed
#: left to right (the scalar reference's order) under Quantizer(32, 8).
ORDER_SENSITIVE = [0.03755472045132702, -0.3670179015756671,
                   -0.30686806382138265]


def _embed_or_raise(encoding, q_subset, offset, label, bit):
    try:
        outcome = encoding.embed(q_subset, offset, label, bit)
        return outcome.q_values, outcome.iterations, None
    except EncodingSearchExhausted as exc:
        return None, None, str(exc)


# ----------------------------------------------------------------------
# multihash
# ----------------------------------------------------------------------

class TestMultihashBatchedParity:

    @pytest.mark.parametrize("method", ["pruned", "random"])
    @settings(max_examples=40, deadline=None)
    @given(case=multihash_cases(), key=keys, label=labels, bit=bits,
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_embed_bit_identical(self, method, case, key, label, bit,
                                 seed):
        params, quantizer, q_subset, offset = case
        hasher = KeyedHasher(key)
        batched = MultihashEncoding(params, quantizer, hasher,
                                    method=method, rng=seed)
        scalar = ScalarMultihash(params, quantizer, hasher,
                                 method=method, rng=seed)
        got = _embed_or_raise(batched, q_subset, offset, label, bit)
        want = _embed_or_raise(scalar, q_subset, offset, label, bit)
        assert got == want
        assert batched.last_stats == scalar.last_stats
        if method == "random":
            # Downstream embeds read the same generator: its position
            # after the search must match the scalar's exactly.
            assert int(batched._rng.integers(0, 2**40)) == \
                int(scalar._rng.integers(0, 2**40))

    @settings(max_examples=150, deadline=None)
    @given(case=multihash_detect_cases(), key=detect_keys, label=labels)
    def test_detect_vote_identical(self, case, key, label):
        params, quantizer, received, offset = case
        encoding = MultihashEncoding(params, quantizer, KeyedHasher(key))
        scalar = ScalarMultihash(params, quantizer, KeyedHasher(key))
        assert encoding.detect(received, offset, label) == \
            scalar.detect(received, offset, label)

    @pytest.mark.parametrize("received", [
        [0.1, INF, -INF, 0.2],
        [-INF, 0.3, INF],           # only the run of all three is NaN
        [1e308] * 4 + [-1e308] * 4,  # the pairwise sum overflows both ways
    ])
    def test_nan_average_abstains(self, received):
        params = WatermarkParams(omega=1, active_run_length=8)
        encoding = MultihashEncoding(params, Quantizer(32, 8),
                                     KeyedHasher(b"k"))
        received = np.asarray(received)
        assert encoding.evidence(received, 1, 5) == []
        assert encoding.detect(received, 1, 5) == Vote(0, 0)
        scalar = ScalarMultihash(params, Quantizer(32, 8), KeyedHasher(b"k"))
        assert scalar.detect(received, 1, 5) == Vote(0, 0)

    @settings(max_examples=100, deadline=None)
    @given(case=multihash_detect_cases(), label=labels)
    @example(case=(WatermarkParams(), Quantizer(32, 8),
                   np.asarray(ORDER_SENSITIVE), 1), label=5)
    def test_evidence_counts_the_scalar_keys(self, case, label):
        """The key-free pass yields exactly the scalar average keys, as
        distinct payloads with their multiplicities."""
        params, quantizer, received, offset = case
        received = received[:params.max_subset_detect]  # no trim
        offset = min(offset, len(received) - 1)
        encoding = MultihashEncoding(params, quantizer, KeyedHasher(b"k"))
        tail = label.to_bytes(8, "big")
        try:
            expected = Counter(
                quantizer.average_key(received[i:j + 1]).to_bytes(8, "big")
                + tail
                for i, j in active_pairs(len(received),
                                         params.active_run_length))
        except ValueError:  # a NaN average: no evidence at all
            assert encoding.evidence(received, offset, label) == []
            return
        evidence = encoding.evidence(received, offset, label)
        assert len({payload for payload, _ in evidence}) == len(evidence)
        assert Counter(dict(evidence)) == expected

    @settings(max_examples=40, deadline=None)
    @given(case=multihash_detect_cases(),
           ring=st.lists(detect_keys, min_size=2, max_size=5),
           label=labels)
    def test_ring_votes_equal_scalar_per_key(self, case, ring, label):
        """What a multi-key detector does per extreme: one evidence pass
        (the first voter's), then one vote per key."""
        params, quantizer, received, offset = case
        encodings = [MultihashEncoding(params, quantizer, KeyedHasher(key))
                     for key in ring]
        evidence = encodings[0].evidence(received, offset, label)
        assert [encoding.vote(evidence) for encoding in encodings] == \
            [ScalarMultihash(params, quantizer,
                             KeyedHasher(key)).detect(received, offset, label)
             for key in ring]


class TestMultiKeyDetectorParity:
    """A key-ring detector's per-key results equal single-key detectors
    that vote through the scalar oracle."""

    @pytest.mark.parametrize("degree", [1.0, 2.0])
    def test_ring_results_equal_scalar_detectors(self, degree):
        params = WatermarkParams(phi=4, omega=2, active_run_length=8)
        ring = [b"ring-a", b"ring-b", b"ring-c"]
        values = TemperatureSensorGenerator(eta=40, seed=11).generate(4000)
        if degree > 1:
            values = uniform_random_sampling(values, 2, rng=11)
        shared = StreamDetector(2, ring, params=params,
                                transform_degree=degree)
        shared.run(values)
        quantizer = Quantizer(params.value_bits, params.avg_extra_bits)
        for key, result in zip(ring, shared.results()):
            oracle = ScalarMultihash(params, quantizer, KeyedHasher(key))
            scalar = StreamDetector(2, key, params=params,
                                    transform_degree=degree,
                                    encoding=oracle)
            scalar.run(values)
            assert result == scalar.result()
        assert sum(r.votes(0) + r.votes(1) for r in shared.results()) > 0


# ----------------------------------------------------------------------
# quadres
# ----------------------------------------------------------------------

@st.composite
def quadres_cases(draw):
    lsb_bits = draw(st.integers(min_value=4, max_value=16))
    value_bits = draw(st.integers(min_value=16, max_value=32))
    params = WatermarkParams(
        lsb_bits=lsb_bits,
        max_search_iterations=draw(st.integers(min_value=20,
                                               max_value=2000)),
    )
    quantizer = Quantizer(value_bits=value_bits, avg_extra_bits=4)
    n_prefixes = draw(st.integers(min_value=1,
                                  max_value=min(lsb_bits - 1, 5)))
    size = draw(st.integers(min_value=1, max_value=10))
    q_subset = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << value_bits) - 1),
        min_size=size, max_size=size))
    offset = draw(st.integers(min_value=0, max_value=size - 1))
    return params, quantizer, n_prefixes, q_subset, offset


class TestQuadResBatchedParity:

    @settings(max_examples=40, deadline=None)
    @given(case=quadres_cases(), key=keys, bit=bits)
    def test_embed_bit_identical(self, case, key, bit):
        params, quantizer, n_prefixes, q_subset, offset = case
        hasher = KeyedHasher(key)
        batched = QuadResEncoding(params, quantizer, hasher,
                                  n_prefixes=n_prefixes)
        scalar = ScalarQuadRes(params, quantizer, hasher,
                               n_prefixes=n_prefixes)
        got = _embed_or_raise(batched, q_subset, offset, 7, bit)
        want = _embed_or_raise(scalar, q_subset, offset, 7, bit)
        assert got == want
        assert batched.last_stats == scalar.last_stats

    @settings(max_examples=40, deadline=None)
    @given(case=quadres_cases(), key=keys,
           noise=st.floats(min_value=0.0, max_value=1e-3))
    def test_detect_vote_identical(self, case, key, noise):
        params, quantizer, n_prefixes, q_subset, offset = case
        hasher = KeyedHasher(key)
        encoding = QuadResEncoding(params, quantizer, hasher,
                                   n_prefixes=n_prefixes)
        scalar = ScalarQuadRes(params, quantizer, hasher,
                               n_prefixes=n_prefixes)
        received = np.asarray(
            [quantizer.dequantize(q) for q in q_subset],
            dtype=np.float64) + noise
        assert encoding.detect(received, offset, 7) == \
            scalar.detect(received, offset, 7)

    @settings(max_examples=40, deadline=None)
    @given(case=quadres_cases(), key=keys,
           received=st.lists(received_values, min_size=1, max_size=20))
    def test_detect_out_of_range_identical(self, case, key, received):
        params, quantizer, n_prefixes, _, _ = case
        encoding = QuadResEncoding(params, quantizer, KeyedHasher(key),
                                   n_prefixes=n_prefixes)
        scalar = ScalarQuadRes(params, quantizer, KeyedHasher(key),
                               n_prefixes=n_prefixes)
        received = np.asarray(received, dtype=np.float64)
        assert encoding.detect(received, 0, 7) == \
            scalar.detect(received, 0, 7)

    @settings(max_examples=20, deadline=None)
    @given(key=keys, values=st.lists(
        st.integers(min_value=0, max_value=2**62), min_size=1,
        max_size=50))
    def test_jacobi_matches_euler(self, key, values):
        prime = derive_prime(KeyedHasher(key))
        for value in values:
            assert ((value % prime != 0)
                    and jacobi_symbol(value, prime) == 1) == \
                is_quadratic_residue(value, prime)

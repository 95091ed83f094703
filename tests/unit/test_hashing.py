"""Unit and property tests for the keyed one-way hash H(V, k)."""

from __future__ import annotations

import hashlib
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.encoding_multihash import MultihashEncoding
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import KeyError_, ParameterError
from repro.util.hashing import (
    H,
    KeyedHasher,
    PatternProber,
    frame_value,
    hash_constructor,
    hash_to_int,
)


class TestH:
    def test_deterministic(self):
        assert H(42, b"k1") == H(42, b"k1")

    def test_value_sensitivity(self):
        assert H(42, b"k1") != H(43, b"k1")

    def test_key_sensitivity(self):
        assert H(42, b"k1") != H(42, b"k2")

    def test_accepts_str_and_int_keys(self):
        assert H(1, "secret") == H(1, b"secret")
        assert isinstance(H(1, 12345), int)

    def test_string_values_length_prefixed(self):
        # Length prefixing prevents concatenation ambiguity.
        assert H("ab", b"k") != H("a", b"k")

    def test_rejects_empty_key(self):
        with pytest.raises(KeyError_):
            H(1, b"")

    def test_rejects_negative_value(self):
        with pytest.raises(ParameterError):
            H(-1, b"k")

    def test_rejects_bool_value(self):
        with pytest.raises(ParameterError):
            H(True, b"k")

    @given(st.integers(0, 2**64), st.integers(0, 2**64))
    def test_distinct_ints_rarely_collide(self, a, b):
        if a != b:
            assert H(a, b"k") != H(b, b"k")


class TestHashToInt:
    def test_md5_width(self):
        assert hash_to_int(b"x").bit_length() <= 128

    def test_sha256_width(self):
        value = hash_to_int(b"x", "sha256")
        assert value.bit_length() <= 256

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ParameterError):
            hash_to_int(b"x", "crc32")


def _md5_outputs() -> tuple:
    """What every MD5 consumer computes.  Each consumer is built here,
    so it resolves ``hash_constructor("md5")`` at this call."""
    params = WatermarkParams(omega=2, active_run_length=3)
    quantizer = Quantizer(params.value_bits, params.avg_extra_bits)
    encoding = MultihashEncoding(params, quantizer, KeyedHasher(b"k1"))
    tail = (5).to_bytes(8, "big")
    evidence = [(key.to_bytes(8, "big") + tail, 1 + key % 3)
                for key in range(512)]
    subset = [quantizer.quantize(0.31 + i * 5e-4) for i in range(6)]
    return (KeyedHasher(b"k1").hash_int(99),
            [KeyedHasher(b"k1").hash_int(v) for v in range(64)],
            PatternProber(b"k1", omega=3).patterns(range(200), 9),
            encoding.vote(evidence),
            encoding.embed(subset, 3, 17, True).q_values)


class TestHashConstructor:
    """The one place that picks the MD5 implementation."""

    def test_md5_digests_equal_hashlib(self):
        new = hash_constructor("md5")
        data = bytes(range(256)) * 2
        for n in range(301):
            assert new(data[:n]).digest() == hashlib.md5(data[:n]).digest()
        key = b"secret-k1"
        label = (17).to_bytes(8, "big")
        for payload in (key + frame_value(123456789) + key,
                        key + (2**40 + 7).to_bytes(8, "big") + label + key):
            assert new(payload).digest() == hashlib.md5(payload).digest()

    def test_md5_is_the_builtin(self):
        builtin = pytest.importorskip("_md5")
        assert hash_constructor("md5") is builtin.md5

    def test_falls_back_to_hashlib_with_the_same_outputs(self, monkeypatch):
        builtin = pytest.importorskip("_md5")
        assert hash_constructor("md5") is builtin.md5
        expected = _md5_outputs()
        monkeypatch.setitem(sys.modules, "_md5", None)
        assert hash_constructor("md5") is hashlib.md5
        assert KeyedHasher(b"k1")._new is hashlib.md5
        assert _md5_outputs() == expected

    @pytest.mark.parametrize("algorithm", ["sha1", "sha256", "sha512"])
    def test_other_algorithms_stay_on_hashlib(self, algorithm):
        assert hash_constructor(algorithm) is getattr(hashlib, algorithm)


class TestKeyedHasher:
    def test_mod_in_range(self):
        hasher = KeyedHasher(b"k1")
        for value in range(100):
            assert 0 <= hasher.mod(value, 7) < 7

    def test_mod_rejects_nonpositive_modulus(self):
        with pytest.raises(ParameterError):
            KeyedHasher(b"k").mod(1, 0)

    def test_matches_module_level_h(self):
        hasher = KeyedHasher(b"k1")
        assert hasher.hash_int(99) == H(99, b"k1")

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            KeyedHasher(b"k1", algorithm="md4")


class TestPatternProber:
    def test_matches_convention_pattern(self):
        from repro.core.encoding_multihash import convention_pattern

        prober = PatternProber(b"k1", omega=3)
        assert prober.patterns(range(40), 9) == \
            [convention_pattern(b"k1", avg_key, 9, 3)
             for avg_key in range(40)]

    def test_patterns_matches_scalar_probes(self):
        prober = PatternProber(b"k1", omega=2)
        avg_keys = list(range(0, 400, 7))
        assert prober.patterns(avg_keys, 5) == \
            [prober.patterns([a], 5)[0] for a in avg_keys]

    def test_full_memo_keeps_recent_hits(self):
        """Regression: eviction must keep the *young* half of the memo.

        The old behaviour wiped the whole table at the limit, which
        discarded the hot (avg_key, label) pairs the random search was
        actively re-testing across candidate rows.  Filling the memo
        past its limit must leave the most recent probes cached.
        """
        prober = PatternProber(b"k1", omega=2, memo_limit=8)
        for avg_key in range(9):  # the 9th insert triggers eviction
            prober.patterns([avg_key], 1)
        assert len(prober) == 5  # survivors (4 young) + the new entry
        memo = prober._memo
        # The most recent pre-eviction probes survived...
        for avg_key in (5, 6, 7, 8):
            assert (avg_key, 1) in memo
        # ...and the oldest were the ones dropped.
        for avg_key in (0, 1, 2, 3):
            assert (avg_key, 1) not in memo

    def test_eviction_preserves_values(self):
        prober = PatternProber(b"k1", omega=3, memo_limit=4)
        fresh = PatternProber(b"k1", omega=3)
        for avg_key in range(50):
            assert prober.patterns([avg_key], 2) == \
                fresh.patterns([avg_key], 2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            PatternProber(b"k1", omega=0)
        with pytest.raises(ParameterError):
            PatternProber(b"k1", omega=1, memo_limit=1)
        with pytest.raises(ParameterError):
            PatternProber(b"k1", omega=1, algorithm="md4")

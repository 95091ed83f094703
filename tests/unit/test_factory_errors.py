"""Tests for the encoding factory and the exception hierarchy."""

from __future__ import annotations

import pytest

from repro.core.encoding_factory import ENCODING_NAMES, build_encoding
from repro.core.encoding_initial import InitialEncoding, Vote
from repro.core.encoding_multihash import MultihashEncoding
from repro.core.encoding_quadres import QuadResEncoding
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import (
    DetectionError,
    EncodingError,
    EncodingSearchExhausted,
    KeyError_,
    NormalizationError,
    ParameterError,
    QualityConstraintViolated,
    ReproError,
    StreamError,
)
from repro.util.hashing import KeyedHasher

PARAMS = WatermarkParams()
QUANTIZER = Quantizer(PARAMS.value_bits, PARAMS.avg_extra_bits)
HASHER = KeyedHasher(b"factory-key")


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("multihash", MultihashEncoding),
        ("initial", InitialEncoding),
        ("quadres", QuadResEncoding),
    ])
    def test_builds_each_named_encoding(self, name, cls):
        assert name in ENCODING_NAMES
        encoding = build_encoding(name, PARAMS, QUANTIZER, HASHER)
        assert isinstance(encoding, cls)

    def test_forwards_options(self):
        encoding = build_encoding("multihash", PARAMS, QUANTIZER, HASHER,
                                  method="random")
        assert encoding._method == "random"

    def test_passes_through_strategy_objects(self):
        strategy = InitialEncoding(PARAMS, QUANTIZER, HASHER)
        assert build_encoding(strategy, PARAMS, QUANTIZER, HASHER) \
            is strategy

    def test_rejects_unknown_name(self):
        with pytest.raises(ParameterError):
            build_encoding("rot13", PARAMS, QUANTIZER, HASHER)

    def test_rejects_non_strategy_object(self):
        with pytest.raises(ParameterError):
            build_encoding(object(), PARAMS, QUANTIZER, HASHER)

    @pytest.mark.parametrize("name", ["multihash", "initial", "quadres"])
    @pytest.mark.parametrize("option", ["bogus", "batched"])
    def test_rejects_unknown_option(self, name, option):
        with pytest.raises(ParameterError, match=option):
            build_encoding(name, PARAMS, QUANTIZER, HASHER,
                           **{option: False})


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [
        ParameterError, StreamError, NormalizationError, EncodingError,
        EncodingSearchExhausted, DetectionError, KeyError_,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_value_errors_catchable_as_such(self):
        assert issubclass(ParameterError, ValueError)
        assert issubclass(NormalizationError, ValueError)
        assert issubclass(KeyError_, ValueError)

    def test_search_exhausted_is_encoding_error(self):
        assert issubclass(EncodingSearchExhausted, EncodingError)

    def test_quality_violation_carries_constraint_name(self):
        exc = QualityConstraintViolated("max-mean-drift")
        assert exc.constraint_name == "max-mean-drift"
        assert "max-mean-drift" in str(exc)

    def test_quality_violation_custom_message(self):
        exc = QualityConstraintViolated("x", "custom text")
        assert str(exc) == "custom text"


class TestVoteSemantics:
    def test_vote_is_frozen(self):
        vote = Vote(n_true=1, n_false=0)
        with pytest.raises(AttributeError):
            vote.n_true = 5  # type: ignore[misc]

"""Tests for key fingerprinting and payload verification."""

from __future__ import annotations

import pytest

from repro import watermark_stream
from repro.core.identification import identify_key, verify_payload
from repro.errors import ParameterError
from repro.streams.generators import TemperatureSensorGenerator
from repro.transforms.sampling import uniform_random_sampling


@pytest.fixture(scope="module")
def fingerprinted(params):
    """Three customers, three keys, one leak (customer B)."""
    stream = TemperatureSensorGenerator(eta=80, seed=91).generate(8000)
    keys = {"customer-a": b"key-a", "customer-b": b"key-b",
            "customer-c": b"key-c"}
    leak, _ = watermark_stream(stream, "1", keys["customer-b"],
                               params=params)
    return keys, leak


class TestIdentifyKey:
    def test_leaker_ranked_first_and_decisive(self, fingerprinted, params):
        keys, leak = fingerprinted
        verdicts = identify_key(leak, keys, params=params)
        assert verdicts[0].key_id == "customer-b"
        assert verdicts[0].decisive
        for other in verdicts[1:]:
            assert not other.decisive

    def test_zero_payload_leaker_ranked_first_and_decisive(self, params):
        """A "0" mark drives the leaker's bias negative; the evidence is
        two-sided, so the leaker must still rank first and be decisive."""
        stream = TemperatureSensorGenerator(eta=80, seed=91).generate(12000)
        keys = {name: f"key-{name}".encode()
                for name in ("customer-a", "customer-b", "customer-c",
                             "customer-d")}
        leak, _ = watermark_stream(stream, "0", keys["customer-b"],
                                   params=params)
        verdicts = identify_key(leak, keys, params=params)
        assert verdicts[0].key_id == "customer-b"
        assert verdicts[0].bias < 0
        assert verdicts[0].decisive
        for other in verdicts[1:]:
            assert not other.decisive

    def test_identification_survives_sampling(self, fingerprinted, params):
        keys, leak = fingerprinted
        sampled = uniform_random_sampling(leak, 3, rng=0)
        verdicts = identify_key(sampled, keys, params=params,
                                transform_degree=3.0)
        assert verdicts[0].key_id == "customer-b"
        assert verdicts[0].bias > 10

    def test_bonferroni_adjustment(self, fingerprinted, params):
        keys, leak = fingerprinted
        verdicts = identify_key(leak, keys, params=params)
        for v in verdicts:
            assert v.adjusted_false_positive == pytest.approx(
                min(1.0, v.false_positive * len(keys)))

    def test_empty_candidates_rejected(self, fingerprinted, params):
        _, leak = fingerprinted
        with pytest.raises(ParameterError):
            identify_key(leak, {}, params=params)


class TestVerifyPayload:
    def test_present_payload_verified(self, params):
        stream = TemperatureSensorGenerator(eta=60, seed=92).generate(20000)
        p = params.with_updates(phi=17)
        marked, _ = watermark_stream(stream, "AB", b"pv-key", params=p)
        verdict = verify_payload(marked, "AB", b"pv-key", params=p)
        assert verdict.present
        assert verdict.total_bits == 16
        assert verdict.matched_bits == verdict.decided_bits

    def test_wrong_payload_not_verified(self, params):
        stream = TemperatureSensorGenerator(eta=60, seed=92).generate(20000)
        p = params.with_updates(phi=17)
        marked, _ = watermark_stream(stream, "AB", b"pv-key", params=p)
        verdict = verify_payload(marked, "XY", b"pv-key", params=p)
        assert not verdict.present

    def test_wrong_key_not_verified(self, params):
        stream = TemperatureSensorGenerator(eta=60, seed=92).generate(20000)
        p = params.with_updates(phi=17)
        marked, _ = watermark_stream(stream, "AB", b"pv-key", params=p)
        verdict = verify_payload(marked, "AB", b"wrong", params=p)
        assert not verdict.present

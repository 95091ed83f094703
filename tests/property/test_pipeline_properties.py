"""Hypothesis property tests on end-to-end pipeline invariants.

These are the guarantees a downstream user relies on regardless of
parameters, keys or data: embedding changes nothing but low bits, output
length equals input length, chunking never changes results, detection is
deterministic, the embedded bit — not its complement — is what detection
recovers, and a multi-tenant :class:`repro.StreamHub` killed at *any*
batch boundary recovers from its directory store bit-identically.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    StreamHub,
    WatermarkParams,
    detect_watermark,
    watermark_stream,
)
from repro.stores import DirectoryCheckpointStore
from repro.streams.generators import TemperatureSensorGenerator

KEY_STRATEGY = st.binary(min_size=1, max_size=24)
SEED_STRATEGY = st.integers(0, 2**31)

#: Fast parameters for property runs: small stream, cheap search.
FAST_PARAMS = WatermarkParams(active_run_length=2, max_subset_embed=6,
                              lambda_bits=6, skip=1)

slow_settings = settings(max_examples=10, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])

#: Every encoding the server serves: name, options and the stream
#: length each example embeds.  ``method="random"`` (seeded, or no two
#: runs agree) carries its PCG64 state across chunk boundaries; its
#: search is the slowest, so its streams are shorter.
ENCODINGS = [
    ("initial", {}, 3000),
    ("multihash", {}, 3000),
    ("multihash", {"method": "random", "rng": 7}, 1500),
    ("quadres", {}, 3000),
]


def make_stream(seed: int, n: int = 3000) -> np.ndarray:
    return TemperatureSensorGenerator(eta=60, seed=seed).generate(n)


class TestEmbeddingInvariants:
    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY)
    def test_length_preserved(self, seed, key):
        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS)
        assert marked.shape == stream.shape

    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY)
    def test_alterations_bounded_by_lsb_budget(self, seed, key):
        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS)
        assert np.max(np.abs(marked - stream)) <= FAST_PARAMS.max_alteration

    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY,
           bit=st.sampled_from(["0", "1"]))
    def test_embedded_bit_recovered_not_complement(self, seed, key, bit):
        stream = make_stream(seed)
        marked, report = watermark_stream(stream, bit, key,
                                          params=FAST_PARAMS)
        if report.embedded < 8:
            return  # too few carriers for a meaningful verdict
        result = detect_watermark(marked, 1, key, params=FAST_PARAMS)
        expected_sign = 1 if bit == "1" else -1
        assert result.bias(0) * expected_sign > 0

    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY,
           chunk=st.sampled_from([173, 900, 5000]))
    def test_chunking_never_changes_output(self, seed, key, chunk):
        """Every encoding the server serves is chunk-blind: a client's
        ``push_items`` and a resume's replay from ``items_in`` cut a
        served stream at arbitrary points.  (The server's own slices
        of a push fall on the scanner's sub-batch boundaries, so they
        keep the bits by construction.)"""
        for encoding, options, items in ENCODINGS:
            stream = make_stream(seed, items)
            a, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS,
                                    encoding=encoding,
                                    encoding_options=options,
                                    chunk_size=chunk)
            b, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS,
                                    encoding=encoding,
                                    encoding_options=options,
                                    chunk_size=1024)
            assert np.array_equal(a, b), (encoding, options)

    @slow_settings
    @given(seed=SEED_STRATEGY)
    def test_different_keys_produce_different_marks(self, seed):
        stream = make_stream(seed)
        a, ra = watermark_stream(stream, "1", b"key-one",
                                 params=FAST_PARAMS)
        b, rb = watermark_stream(stream, "1", b"key-two",
                                 params=FAST_PARAMS)
        if ra.embedded and rb.embedded:
            assert not np.array_equal(a, b)

    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY)
    def test_embedding_deterministic(self, seed, key):
        stream = make_stream(seed)
        a, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS)
        b, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS)
        assert np.array_equal(a, b)


class TestDetectionInvariants:
    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY)
    def test_detection_deterministic(self, seed, key):
        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS)
        r1 = detect_watermark(marked, 1, key, params=FAST_PARAMS)
        r2 = detect_watermark(marked, 1, key, params=FAST_PARAMS)
        assert r1.buckets_true == r2.buckets_true
        assert r1.buckets_false == r2.buckets_false

    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY)
    def test_buckets_bounded_by_selected(self, seed, key):
        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS)
        result = detect_watermark(marked, 1, key, params=FAST_PARAMS)
        total_votes = result.votes(0) + result.abstentions
        assert total_votes <= result.counters.selected

    @slow_settings
    @given(seed=SEED_STRATEGY, key=KEY_STRATEGY,
           threshold=st.integers(0, 30))
    def test_higher_threshold_never_decides_more(self, seed, key,
                                                 threshold):
        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", key, params=FAST_PARAMS)
        result = detect_watermark(marked, 1, key, params=FAST_PARAMS)
        decided_low = sum(b is not None for b in result.wm_estimate(0))
        decided_high = sum(b is not None
                           for b in result.wm_estimate(threshold))
        assert decided_high <= decided_low

    @slow_settings
    @given(seed=SEED_STRATEGY)
    def test_confidence_consistent_with_bias(self, seed):
        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", b"prop-key",
                                     params=FAST_PARAMS)
        result = detect_watermark(marked, 1, b"prop-key",
                                  params=FAST_PARAMS)
        bias = result.bias(0)
        confidence = result.confidence(0)
        if bias <= 0:
            assert confidence == 0.0
        else:
            assert confidence == pytest.approx(1.0 - 2.0 ** -bias)


class TestHubKillRecover:
    """Hub-level crash equivalence: for random interleavings of pushes
    across N independently-keyed streams and a random kill point at any
    batch boundary, recovery from the directory store produces the same
    output bits and detector votes as an uninterrupted run."""

    #: phi must exceed the 2-bit payload (paper Sec 3.2).
    HUB_PARAMS = WatermarkParams(active_run_length=2, max_subset_embed=6,
                                 lambda_bits=6, skip=1, phi=4)
    WATERMARK = "10"

    @staticmethod
    def _key(stream_id: str) -> bytes:
        return f"hub-prop-{stream_id}".encode()

    def _build_hub(self, streams, store=None, checkpoint_every=0):
        hub = StreamHub(store=store, checkpoint_every=checkpoint_every)
        for stream_id in streams:
            if stream_id.startswith("det"):
                hub.detect(stream_id, len(self.WATERMARK),
                           self._key(stream_id), params=self.HUB_PARAMS)
            else:
                hub.protect(stream_id, self.WATERMARK,
                            self._key(stream_id), params=self.HUB_PARAMS)
        return hub

    def _run(self, hub, batches, start=0):
        """Feed batches[start:], finish, return (outputs, votes)."""
        outputs = {}
        for stream_id, chunk in batches[start:]:
            out = hub.push(stream_id, chunk)
            outputs.setdefault(stream_id, []).append(out)
        for stream_id, tail in hub.finish_all().items():
            outputs.setdefault(stream_id, []).append(tail)
        votes = {stream_id: [(hub.result(stream_id).votes(i),
                              hub.result(stream_id).bias(i))
                             for i in range(len(self.WATERMARK))]
                 for stream_id in hub.stream_ids
                 if stream_id.startswith("det")}
        return ({stream_id: np.concatenate(pieces)
                 for stream_id, pieces in outputs.items()}, votes)

    @slow_settings
    @given(data=st.data())
    def test_kill_and_recover_bit_identical(self, data):
        n_streams = data.draw(st.integers(2, 3), label="n_streams")
        with_detector = data.draw(st.booleans(), label="with_detector")
        seeds = [data.draw(SEED_STRATEGY, label=f"seed{i}")
                 for i in range(n_streams + with_detector)]

        streams = {f"prot-{i}": make_stream(seeds[i], n=1200)
                   for i in range(n_streams)}
        if with_detector:
            # the detector watches a marked copy of an unrelated stream
            suspect = make_stream(seeds[-1], n=1200)
            streams["det-0"], _ = watermark_stream(
                suspect, self.WATERMARK, self._key("det-0"),
                params=self.HUB_PARAMS)

        # random interleaving that preserves per-stream chunk order
        chunk = data.draw(st.sampled_from([150, 250, 400]), label="chunk")
        cursors = {stream_id: 0 for stream_id in streams}
        batches = []
        while cursors:
            stream_id = data.draw(
                st.sampled_from(sorted(cursors)), label="next")
            start = cursors[stream_id]
            batches.append(
                (stream_id, streams[stream_id][start:start + chunk]))
            cursors[stream_id] += chunk
            if cursors[stream_id] >= len(streams[stream_id]):
                del cursors[stream_id]

        reference, ref_votes = self._run(self._build_hub(streams), batches)

        kill_at = data.draw(st.integers(0, len(batches)), label="kill_at")
        with tempfile.TemporaryDirectory() as tmp:
            store = DirectoryCheckpointStore(tmp)
            doomed = self._build_hub(streams, store=store,
                                     checkpoint_every=1)
            doomed.checkpoint_all()  # pristine state is durable too
            prefix = {}
            for stream_id, chunk_values in batches[:kill_at]:
                out = doomed.push(stream_id, chunk_values)
                prefix.setdefault(stream_id, []).append(out)
            del doomed  # the crash: only the store survives

            recovered = StreamHub.recover(
                store, self._key, checkpoint_every=1)
            # cadence 1 + kill at a batch boundary: nothing to replay
            for stream_id in streams:
                fed = sum(len(c) for sid, c in batches[:kill_at]
                          if sid == stream_id)
                assert recovered.stats(stream_id)["items_in"] == fed
            suffix, rec_votes = self._run(recovered, batches,
                                          start=kill_at)

        for stream_id in streams:
            pieces = prefix.get(stream_id, []) \
                + [suffix.get(stream_id, np.empty(0))]
            assert np.array_equal(np.concatenate(pieces),
                                  reference[stream_id]), stream_id
        assert rec_votes == ref_votes


class TestTransformCommutation:
    @slow_settings
    @given(seed=SEED_STRATEGY, degree=st.integers(2, 5))
    def test_fixed_sampling_of_marked_equals_marked_subsequence(self, seed,
                                                                degree):
        """Fixed sampling is pure decimation: the surviving values are
        bit-identical to the embedder's output at those positions."""
        from repro.transforms.sampling import fixed_random_sampling

        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", b"k", params=FAST_PARAMS)
        sampled = fixed_random_sampling(marked, degree)
        assert np.array_equal(sampled, marked[::degree])

    @slow_settings
    @given(seed=SEED_STRATEGY, degree=st.integers(2, 4))
    def test_summarized_values_are_chunk_means_of_marked(self, seed,
                                                         degree):
        from repro.transforms.summarization import summarize

        stream = make_stream(seed)
        marked, _ = watermark_stream(stream, "1", b"k", params=FAST_PARAMS)
        out = summarize(marked, degree, keep_partial=False)
        n = (len(marked) // degree) * degree
        expected = marked[:n].reshape(-1, degree).mean(axis=1)
        assert np.array_equal(out, expected)

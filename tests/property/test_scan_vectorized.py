"""Property tests: the vectorized scan path is bit-identical to the seed.

The PR-2 performance work rewrote the scanning hot path (ring-buffer
window, candidate-reduced zigzag, block-scanned characteristic subsets,
incremental labels, fused quantization).  Every rewrite must preserve
the seed's scalar behaviour *exactly*:

* :func:`zigzag_pivots` (candidate reduction) vs
  :func:`zigzag_pivots_scalar` (the seed's per-item loop, kept verbatim
  in ``tests/oracles.py``) on random / noisy / plateau streams,
  whole-array and chunked;
* :func:`characteristic_subset` vs a straight re-implementation of the
  seed's per-item expansion;
* the ring-buffer :class:`SlidingWindow` vs a deque model;
* end-to-end embed/detect digests recorded from the seed revision
  (``tests/fixtures/seed_scan_reference.json``);
* checkpoint/resume at an ingestion-batch boundary.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DetectionSession,
    ProtectionSession,
    WatermarkParams,
    detect_watermark,
    watermark_stream,
)
from repro.core.extremes import (
    ZigzagState,
    characteristic_subset,
    zigzag_pivots,
)
from repro.core.quantize import Quantizer
from repro.streams.window import SlidingWindow
from tests.oracles import zigzag_pivots_scalar

FIXTURES = Path(__file__).parent.parent / "fixtures"

# ----------------------------------------------------------------------
# stream strategies: random, noisy-periodic, plateau-heavy
# ----------------------------------------------------------------------


@st.composite
def streams(draw, max_size=300):
    n = draw(st.integers(1, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["random", "noisy", "plateau", "steps"]))
    rng = np.random.default_rng(seed)
    if kind == "random":
        values = rng.uniform(-0.5, 0.5, n)
    elif kind == "noisy":
        span = rng.uniform(1.0, 40.0)
        values = (0.3 * np.sin(np.linspace(0.0, span, n))
                  + rng.normal(0.0, 0.05, n))
    elif kind == "plateau":
        values = np.round(rng.uniform(-0.5, 0.5, n) * 8) / 8.0
    else:  # tiny alphabet: long plateaus, repeated extremes
        values = rng.choice([-0.2, 0.0, 0.0, 0.1, 0.1, 0.3], n)
    return np.clip(values, -0.499, 0.499)


class TestZigzagEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(streams(), st.sampled_from([0.01, 0.05, 0.1, 0.3]))
    def test_whole_array_matches_scalar(self, values, prominence):
        vec_pivots, vec_state = zigzag_pivots(values, prominence)
        ref_pivots, ref_state = zigzag_pivots_scalar(values, prominence)
        assert vec_pivots == ref_pivots
        assert vec_state.to_state() == ref_state.to_state()

    @settings(max_examples=100, deadline=None)
    @given(streams(), st.sampled_from([0.01, 0.05, 0.25]),
           st.integers(1, 60))
    def test_chunked_continuation_matches_scalar(self, values, prominence,
                                                 chunk):
        vec_state, ref_state = ZigzagState.fresh(), ZigzagState.fresh()
        vec_pivots, ref_pivots = [], []
        for lo in range(0, len(values), chunk):
            sub = values[lo:lo + chunk]
            got, vec_state = zigzag_pivots(sub, prominence, vec_state,
                                           offset=lo)
            want, ref_state = zigzag_pivots_scalar(sub, prominence,
                                                   ref_state, offset=lo)
            vec_pivots += got
            ref_pivots += want
        assert vec_pivots == ref_pivots
        assert vec_state.to_state() == ref_state.to_state()


def _subset_scalar(values, index, delta):
    """The seed's per-item characteristic-subset expansion."""
    n = len(values)
    center = float(values[index])
    start = index
    while start > 0 and abs(float(values[start - 1]) - center) < delta:
        start -= 1
    end = index
    while end < n - 1 and abs(float(values[end + 1]) - center) < delta:
        end += 1
    return start, end


class TestSubsetEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(streams(), st.data(),
           st.sampled_from([0.005, 0.02, 0.2, 0.9]))
    def test_matches_scalar_expansion(self, values, data, delta):
        index = data.draw(st.integers(0, len(values) - 1))
        assert characteristic_subset(values, index, delta) \
            == _subset_scalar(values, index, delta)


class TestAverageKeySmallRanges:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20))
    def test_sequential_sum_matches_numpy_mean(self, seed, n):
        """The n<8 fast path must key exactly like np.mean did."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(-0.5, 0.5, n)
        quantizer = Quantizer(32, 8)
        reference = int(np.floor((float(np.mean(values)) + 0.5)
                                 * 2.0 ** 40))
        reference = min(max(reference, 0), (1 << 40) - 1)
        assert quantizer.average_key(values) == reference


class TestWindowRingBuffer:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1,
                    max_size=300),
           st.integers(2, 16), st.data())
    def test_matches_deque_model(self, values, capacity, data):
        """Random push_chunk/advance/replace interleavings match a deque."""
        window = SlidingWindow(capacity)
        model: deque = deque()
        model_start = 0
        i = 0
        while i < len(values):
            step = data.draw(st.integers(1, 8))
            chunk = values[i:i + step]
            i += step
            evicted = window.push_chunk(np.asarray(chunk)).tolist()
            model_evicted = []
            for value in chunk:
                if len(model) >= capacity:
                    model_evicted.append(model.popleft())
                    model_start += 1
                model.append(float(value))
            assert evicted == model_evicted
            if data.draw(st.booleans()):
                n_advance = data.draw(st.integers(0, 4))
                got = window.advance(n_advance)
                want = [model.popleft()
                        for _ in range(min(n_advance, len(model)))]
                model_start += len(want)
                assert got == want
            if model and data.draw(st.booleans()):
                offset = data.draw(st.integers(0, len(model) - 1))
                replacement = data.draw(
                    st.floats(-1, 1, allow_nan=False))
                window.replace(offset, replacement)
                model[offset] = float(replacement)
            assert window.values().tolist() == list(model)
            assert window.start_index == model_start
        assert window.flush() == list(model)


# ----------------------------------------------------------------------
# end-to-end: recorded seed digests and batch-boundary checkpointing
# ----------------------------------------------------------------------
def _reference_streams():
    rng = np.random.default_rng(2026)
    out = {}
    out["random"] = rng.uniform(-0.45, 0.45, 3000)
    t = np.linspace(0, 40 * np.pi, 3000)
    out["noisy"] = 0.3 * np.sin(t) + rng.normal(0, 0.03, 3000)
    out["plateau"] = np.round(
        0.35 * np.sin(np.linspace(0, 24 * np.pi, 3000)) * 20) / 20.0
    return {k: np.clip(v, -0.499, 0.499) for k, v in out.items()}


def _reference_configs():
    return {
        "default-multihash": dict(params=WatermarkParams(phi=5),
                                  encoding="multihash"),
        "initial": dict(params=WatermarkParams(phi=5), encoding="initial"),
        "raw-extreme": dict(params=WatermarkParams(
            phi=5, robust_extreme_value=False, recenter_extremes=False),
            encoding="initial"),
        "small-window": dict(params=WatermarkParams(
            phi=5, window_size=256, lambda_bits=8, skip=1),
            encoding="multihash"),
    }


@pytest.fixture(scope="module")
def seed_reference():
    with open(FIXTURES / "seed_scan_reference.json") as handle:
        return json.load(handle)


class TestSeedDigests:
    """Embed/detect outputs recorded at the seed revision still hold."""

    @pytest.mark.parametrize("stream_name",
                             ["random", "noisy", "plateau"])
    def test_embed_detect_digests(self, seed_reference, stream_name):
        stream = _reference_streams()[stream_name]
        for config_name, config in _reference_configs().items():
            marked, report = watermark_stream(
                stream, "10", b"ref-key", params=config["params"],
                encoding=config["encoding"])
            detection = detect_watermark(
                marked, 2, b"ref-key", params=config["params"],
                encoding=config["encoding"])
            expected = seed_reference["embed"][
                f"{stream_name}/{config_name}"]
            assert hashlib.sha256(marked.tobytes()).hexdigest() \
                == expected["marked_sha256"], config_name
            assert [detection.bias(i) for i in range(2)] \
                == expected["bias"], config_name
            assert report.counters.to_dict() == expected["counters"]

    @pytest.mark.parametrize("stream_name",
                             ["random", "noisy", "plateau"])
    def test_zigzag_digests(self, seed_reference, stream_name):
        stream = _reference_streams()[stream_name]
        pivots, state = zigzag_pivots(stream, 0.05)
        expected = seed_reference["zigzag"][stream_name]
        digest = hashlib.sha256(json.dumps(pivots).encode()).hexdigest()
        assert digest == expected["pivots_sha256"]
        assert len(pivots) == expected["n_pivots"]
        assert state.to_state() == expected["end_state"]


class TestBatchBoundaryCheckpoint:
    """Checkpoint-resume exactly at an ingestion sub-batch boundary."""

    def test_protection_resume_at_batch_boundary(self):
        params = WatermarkParams(phi=5)
        batch = max(16, params.window_size // 4)
        stream = _reference_streams()["noisy"]
        offline, _ = watermark_stream(stream, "10", b"bb-key",
                                      params=params)

        session = ProtectionSession("10", b"bb-key", params=params)
        pieces = [session.feed(stream[:2 * batch])]
        state = json.loads(json.dumps(session.to_state()))
        resumed = ProtectionSession.from_state(state, b"bb-key")
        pieces.append(resumed.feed(stream[2 * batch:]))
        pieces.append(resumed.finish())
        assert np.array_equal(np.concatenate(pieces), offline)

    def test_detection_resume_at_batch_boundary(self):
        params = WatermarkParams(phi=5)
        batch = max(16, params.window_size // 4)
        stream = _reference_streams()["noisy"]
        marked, _ = watermark_stream(stream, "10", b"bb-key", params=params)
        offline = detect_watermark(marked, 2, b"bb-key", params=params)

        session = DetectionSession(2, b"bb-key", params=params)
        session.feed(marked[:2 * batch])
        state = json.loads(json.dumps(session.to_state()))
        resumed = DetectionSession.from_state(state, b"bb-key")
        resumed.feed(marked[2 * batch:])
        resumed.finish()
        result = resumed.result()
        for bit in range(2):
            assert result.bias(bit) == offline.bias(bit)
            assert result.votes(bit) == offline.votes(bit)

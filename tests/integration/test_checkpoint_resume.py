"""Acceptance: checkpoint-at-midpoint + resume == uninterrupted run.

A 6000-item stream is fed chunk-by-chunk through a
:class:`ProtectionSession`; at item 3000 the session is serialized to a
JSON string (a real cross-process migration would ship exactly these
bytes) and resumed in a fresh session object.  The watermarked output
and the final per-bit detection bias must be *identical* to the
uninterrupted offline ``watermark_stream`` / ``detect_watermark`` run.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    DetectionSession,
    ProtectionSession,
    StreamHub,
    WatermarkParams,
    detect_watermark,
    watermark_stream,
)
from repro.streams import TemperatureSensorGenerator
from tests.conftest import KEY

CHUNK = 250
CHECKPOINT_AT = 3000
WATERMARK = "10"  # two bits, so per-bit bias is actually exercised


@pytest.fixture(scope="module")
def stream() -> np.ndarray:
    return TemperatureSensorGenerator(eta=60, seed=7).generate(6000)


@pytest.fixture(scope="module")
def session_params() -> WatermarkParams:
    # phi must exceed the payload length (paper Sec 3.2).
    return WatermarkParams(phi=5)


def feed_chunks(session, values: np.ndarray, start: int, end: int) -> list:
    return [session.feed(values[i:i + CHUNK])
            for i in range(start, end, CHUNK)]


class TestCheckpointResume:
    def test_protection_session_checkpoint_matches_offline(
            self, stream, session_params):
        offline_marked, _ = watermark_stream(stream, WATERMARK, KEY,
                                             params=session_params)

        session = ProtectionSession(WATERMARK, KEY, params=session_params)
        pieces = feed_chunks(session, stream, 0, CHECKPOINT_AT)
        assert session.items_ingested == CHECKPOINT_AT
        wire_bytes = json.dumps(session.to_state())

        resumed = ProtectionSession.from_state(json.loads(wire_bytes), KEY)
        pieces += feed_chunks(resumed, stream, CHECKPOINT_AT, len(stream))
        pieces.append(resumed.finish())
        streamed_marked = np.concatenate(pieces)

        assert len(streamed_marked) == len(stream)
        assert np.array_equal(streamed_marked, offline_marked)

    def test_detection_session_checkpoint_bias_identical(
            self, stream, session_params):
        marked, _ = watermark_stream(stream, WATERMARK, KEY,
                                     params=session_params)
        offline = detect_watermark(marked, len(WATERMARK), KEY,
                                   params=session_params)

        session = DetectionSession(len(WATERMARK), KEY,
                                   params=session_params)
        feed_chunks(session, marked, 0, CHECKPOINT_AT)
        wire_bytes = json.dumps(session.to_state())

        resumed = DetectionSession.from_state(json.loads(wire_bytes), KEY)
        feed_chunks(resumed, marked, CHECKPOINT_AT, len(marked))
        resumed.finish()
        result = resumed.result()

        assert result.wm_length == offline.wm_length
        for bit in range(offline.wm_length):
            assert result.bias(bit) == offline.bias(bit)
            assert result.votes(bit) == offline.votes(bit)
        assert result.wm_estimate() == offline.wm_estimate()
        assert offline.bias(0) > 0  # the run itself must be decisive

    def test_resume_is_restartable_at_any_chunk(self, stream,
                                                session_params):
        """Checkpoint/resume at *every* chunk boundary stays exact."""
        offline_marked, _ = watermark_stream(stream, WATERMARK, KEY,
                                             params=session_params)
        session = ProtectionSession(WATERMARK, KEY, params=session_params)
        pieces = []
        for i in range(0, len(stream), CHUNK):
            pieces.append(session.feed(stream[i:i + CHUNK]))
            session = ProtectionSession.from_state(
                json.loads(json.dumps(session.to_state())), KEY)
        pieces.append(session.finish())
        assert np.array_equal(np.concatenate(pieces), offline_marked)


#: The random multi-hash search, kept cheap: one-item runs in at most
#: four items per subset.
RANDOM_PARAMS = WatermarkParams(phi=5, active_run_length=1,
                                max_subset_embed=4)
SEEDED = {"method": "random", "rng": 7}


@pytest.fixture(scope="module")
def long_stream() -> np.ndarray:
    return TemperatureSensorGenerator(eta=60, seed=9).generate(12000)


def feed_to_end(session, values: np.ndarray, start: int) -> np.ndarray:
    """Feed ``values[start:]``, finish, and return the released items."""
    pieces = feed_chunks(session, values, start, len(values))
    pieces.append(session.finish())
    return np.concatenate(pieces)


def random_session(options: dict) -> ProtectionSession:
    return ProtectionSession(WATERMARK, KEY, params=RANDOM_PARAMS,
                             encoding_options=options)


class TestRandomSearchResume:
    """The random multi-hash search draws from a generator.  A
    checkpoint carries the generator's position, so a resumed session
    continues its stream instead of re-seeding it."""

    @pytest.mark.parametrize("split", [3000, 6000, 9000])
    def test_seeded_resume_is_bit_identical(self, long_stream, split):
        uninterrupted = feed_to_end(random_session(SEEDED), long_stream, 0)
        session = random_session(SEEDED)
        head = feed_chunks(session, long_stream, 0, split)
        resumed = ProtectionSession.from_state(
            json.loads(json.dumps(session.to_state())), KEY)
        tail = feed_to_end(resumed, long_stream, split)
        assert np.array_equal(np.concatenate(head + [tail]), uninterrupted)

    @pytest.mark.parametrize("split", [3000, 6000, 9000])
    def test_unseeded_resume_continues_the_generator(self, long_stream,
                                                     split):
        """With no seed the generator starts from the OS; the original
        session, carried on past the checkpoint, is the reference."""
        session = random_session({"method": "random"})
        feed_chunks(session, long_stream, 0, split)
        resumed = ProtectionSession.from_state(
            json.loads(json.dumps(session.to_state())), KEY)
        assert np.array_equal(feed_to_end(resumed, long_stream, split),
                              feed_to_end(session, long_stream, split))

    def test_evicting_hub_is_bit_identical(self, long_stream):
        """A hub with one live session checkpoints a stream out and
        restores it on every other push."""
        streams = {"a": long_stream,
                   "b": TemperatureSensorGenerator(eta=60,
                                                   seed=10).generate(12000)}
        outputs = {}
        for max_live in (None, 1):
            hub = StreamHub(max_live_sessions=max_live)
            for sid in streams:
                hub.protect(sid, WATERMARK, KEY, params=RANDOM_PARAMS,
                            encoding_options=SEEDED)
            pieces = {sid: [] for sid in streams}
            for start in range(0, 12000, 1500):
                for sid, values in streams.items():
                    pieces[sid].append(hub.push(sid,
                                                values[start:start + 1500]))
            for sid, tail in hub.finish_all().items():
                pieces[sid].append(tail)
            outputs[max_live] = {sid: np.concatenate(parts)
                                 for sid, parts in pieces.items()}
            if max_live == 1:
                assert all(stats["restores"] > 0
                           for stats in hub.stats().values())
        for sid in streams:
            assert np.array_equal(outputs[1][sid], outputs[None][sid]), sid


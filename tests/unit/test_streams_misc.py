"""Tests for stream model, I/O and the synthetic IRTF dataset."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError, StreamError
from repro.streams.io import (
    load_stream_csv,
    load_stream_npy,
    save_stream_csv,
    save_stream_npy,
)
from repro.streams.model import StreamMeta, chunked
from repro.streams.nasa import (
    IRTF_CADENCE_SECONDS,
    IRTF_N_READINGS,
    synthetic_irtf_month,
)


class TestStreamMeta:
    def test_rate_validation(self):
        with pytest.raises(StreamError):
            StreamMeta(rate_hz=0.0)


class TestChunked:
    def test_chunks_cover_source(self):
        chunks = list(chunked(iter(range(10)), 3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert np.concatenate(chunks).tolist() == list(map(float, range(10)))

    def test_exact_multiple(self):
        chunks = list(chunked(iter(range(6)), 3))
        assert [len(c) for c in chunks] == [3, 3]

    def test_chunk_size_validation(self):
        with pytest.raises(StreamError):
            list(chunked(iter([1.0]), 0))


class TestIo:
    def test_csv_roundtrip_lossless(self, tmp_path):
        values = np.asarray([0.1, -0.25, 0.3333333333333333])
        path = tmp_path / "stream.csv"
        save_stream_csv(path, values)
        loaded = load_stream_csv(path)
        assert np.array_equal(loaded, values)

    def test_npy_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.uniform(-0.4, 0.4, size=257)
        path = tmp_path / "stream.npy"
        save_stream_npy(path, values)
        assert np.array_equal(load_stream_npy(path), values)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StreamError):
            load_stream_csv(tmp_path / "absent.csv")
        with pytest.raises(StreamError):
            load_stream_npy(tmp_path / "absent.npy")

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("value\n")
        with pytest.raises(StreamError):
            load_stream_csv(path)


class TestSyntheticIrtf:
    def test_reference_shape(self):
        values, meta = synthetic_irtf_month()
        assert len(values) == IRTF_N_READINGS == 21630
        assert meta.rate_hz == pytest.approx(1.0 / IRTF_CADENCE_SECONDS)
        assert meta.units == "celsius"

    def test_range_matches_paper_description(self):
        values, _ = synthetic_irtf_month()
        assert values.min() >= 0.0
        assert values.max() <= 35.0
        assert 5.0 < values.mean() < 25.0

    def test_deterministic_reference_dataset(self):
        a, _ = synthetic_irtf_month()
        b, _ = synthetic_irtf_month()
        assert np.array_equal(a, b)

    def test_diurnal_cycle_present(self):
        """Dominant periodicity near 720 samples (24 h at 2-min cadence)."""
        values, _ = synthetic_irtf_month(n_readings=720 * 8)
        centered = values - values.mean()
        spectrum = np.abs(np.fft.rfft(centered))
        spectrum[0] = 0.0
        peak = int(np.argmax(spectrum[1:40])) + 1
        period = len(values) / peak
        assert 500 < period < 1000

    def test_minimum_length_enforced(self):
        with pytest.raises(ParameterError):
            synthetic_irtf_month(n_readings=100)

"""Unit and property tests for the finite processing window."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streams.window import SlidingWindow


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(StreamError):
            SlidingWindow(1)

    def test_push_below_capacity_evicts_nothing(self):
        w = SlidingWindow(4)
        assert w.push(1.0) is None
        assert len(w) == 1

    def test_push_at_capacity_evicts_fifo(self):
        w = SlidingWindow(3)
        w.push_chunk([1.0, 2.0, 3.0])
        assert w.push(4.0) == 1.0
        assert list(w) == [2.0, 3.0, 4.0]

    def test_indices_track_stream_positions(self):
        w = SlidingWindow(3)
        w.push_chunk([1.0, 2.0, 3.0, 4.0, 5.0])
        assert w.start_index == 2
        assert w.end_index == 5

    def test_getitem_and_replace(self):
        w = SlidingWindow(4)
        w.push_chunk([1.0, 2.0, 3.0])
        w.replace(1, 9.0)
        assert w[1] == 9.0

    def test_replace_out_of_range(self):
        w = SlidingWindow(4)
        w.push(1.0)
        with pytest.raises(StreamError):
            w.replace(3, 0.0)

    def test_advance_returns_oldest(self):
        w = SlidingWindow(8)
        w.push_chunk([1.0, 2.0, 3.0, 4.0])
        assert w.advance(2) == [1.0, 2.0]
        assert w.start_index == 2

    def test_advance_negative_rejected(self):
        with pytest.raises(StreamError):
            SlidingWindow(4).advance(-1)

    def test_flush_drains_everything(self):
        w = SlidingWindow(8)
        w.push_chunk([1.0, 2.0])
        assert w.flush() == [1.0, 2.0]
        assert len(w) == 0

    def test_push_chunk_returns_evictions_in_order(self):
        w = SlidingWindow(3)
        assert w.push_chunk([1.0, 2.0]).tolist() == []
        assert w.push_chunk([3.0, 4.0, 5.0]).tolist() == [1.0, 2.0]
        assert list(w) == [3.0, 4.0, 5.0]

    def test_push_chunk_larger_than_capacity_passes_through(self):
        w = SlidingWindow(3)
        w.push_chunk([1.0, 2.0, 3.0])
        evicted = w.push_chunk([4.0, 5.0, 6.0, 7.0, 8.0])
        assert evicted.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(w) == [6.0, 7.0, 8.0]
        assert w.start_index == 5


class TestStateRoundTrip:
    def test_round_trip_preserves_contents(self):
        w = SlidingWindow(4)
        w.push_chunk([1.5, -0.25, 3.0, 4.0, 5.0])
        restored = SlidingWindow.from_state(w.to_state())
        assert restored.values().tolist() == w.values().tolist()
        assert restored.start_index == w.start_index
        assert restored.capacity == w.capacity

    def test_overfull_state_rejected(self):
        with pytest.raises(StreamError):
            SlidingWindow.from_state(
                {"capacity": 2, "start_index": 0,
                 "items": [1.0, 2.0, 3.0]})

    def test_negative_start_index_rejected(self):
        """A corrupt (negative) start_index would silently shift every
        absolute extreme index on resume; it must be refused."""
        with pytest.raises(StreamError):
            SlidingWindow.from_state(
                {"capacity": 4, "start_index": -3, "items": [1.0]})


class TestStreamInvariants:
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=0,
                    max_size=200),
           st.integers(2, 16))
    def test_conservation(self, values, capacity):
        """Every pushed item is either still in-window or was evicted."""
        w = SlidingWindow(capacity)
        evicted = w.push_chunk(values).tolist()
        assert evicted + list(w) == values

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1,
                    max_size=200),
           st.integers(2, 16))
    def test_size_never_exceeds_capacity(self, values, capacity):
        w = SlidingWindow(capacity)
        for v in values:
            w.push(v)
            assert len(w) <= capacity

    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=1,
                    max_size=100),
           st.integers(2, 8), st.data())
    def test_interleaved_push_advance_preserves_order(self, values,
                                                      capacity, data):
        """Arbitrary push/advance interleavings release items in order."""
        w = SlidingWindow(capacity)
        released: list[float] = []
        for v in values:
            evicted = w.push(v)
            if evicted is not None:
                released.append(evicted)
            if data.draw(st.booleans()):
                released.extend(w.advance(data.draw(st.integers(0, 3))))
        released.extend(w.flush())
        assert released == values

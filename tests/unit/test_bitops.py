"""Unit and property tests for repro.util.bitops."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.util import bitops


class TestBitLength:
    def test_zero_occupies_one_bit(self):
        assert bitops.bit_length(0) == 1

    def test_matches_python_for_positive(self):
        assert bitops.bit_length(255) == 8
        assert bitops.bit_length(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            bitops.bit_length(-1)


class TestMsbLsb:
    def test_msb_extracts_top_bits(self):
        assert bitops.msb(0b1011_0000, 4, 8) == 0b1011

    def test_msb_left_pads_small_values(self):
        # b(x) < width: the value is implicitly left-padded with zeroes.
        assert bitops.msb(0b0000_0001, 4, 8) == 0

    def test_msb_full_width_is_identity(self):
        assert bitops.msb(123, 8, 8) == 123
        assert bitops.msb(123, 12, 8) == 123

    def test_lsb_extracts_low_bits(self):
        assert bitops.lsb(0b1011_0110, 4) == 0b0110

    def test_msb_rejects_oversized_value(self):
        with pytest.raises(ParameterError):
            bitops.msb(256, 4, 8)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ParameterError):
            bitops.msb(1, 0, 8)
        with pytest.raises(ParameterError):
            bitops.lsb(1, 0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 31))
    def test_msb_lsb_partition_value(self, x, b):
        """msb and lsb together reconstruct the original word."""
        width = 32
        high = bitops.msb(x, width - b, width)
        low = bitops.lsb(x, b)
        assert (high << b) | low == x

    @given(st.integers(0, 2**32 - 1), st.integers(1, 32))
    def test_lsb_idempotent(self, x, b):
        assert bitops.lsb(bitops.lsb(x, b), b) == bitops.lsb(x, b)


class TestBitManipulation:
    def test_set_clear_get(self):
        x = 0
        x = bitops.set_bit(x, 3)
        assert bitops.get_bit(x, 3) == 1
        x = bitops.clear_bit(x, 3)
        assert bitops.get_bit(x, 3) == 0

    @given(st.integers(0, 2**32 - 1), st.integers(0, 31),
           st.booleans())
    def test_with_bit_roundtrip(self, x, pos, value):
        assert bitops.get_bit(bitops.with_bit(x, pos, value), pos) == int(value)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 31),
           st.booleans())
    def test_with_bit_leaves_other_bits(self, x, pos, value):
        y = bitops.with_bit(x, pos, value)
        mask = ~(1 << pos)
        assert y & mask == x & mask


class TestGuardedBit:
    def test_writes_payload_and_zeroes_guards(self):
        x = 0b1111_1111
        y = bitops.apply_guarded_bit(x, 3, True)
        assert bitops.get_bit(y, 2) == 0
        assert bitops.get_bit(y, 3) == 1
        assert bitops.get_bit(y, 4) == 0

    def test_false_payload(self):
        y = bitops.apply_guarded_bit(0b1111_1111, 3, False)
        assert bitops.get_bit(y, 3) == 0

    def test_position_zero_rejected(self):
        # No room for the low guard bit.
        with pytest.raises(ParameterError):
            bitops.apply_guarded_bit(0, 0, True)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 29), st.booleans())
    def test_read_recovers_written_bit(self, x, pos, bit):
        y = bitops.apply_guarded_bit(x, pos, bit)
        assert bitops.read_guarded_bit(y, pos) == int(bit)

    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1),
           st.integers(2, 17), st.booleans())
    def test_guard_bits_protect_pairwise_average(self, low_a, low_b, pos, bit):
        """The initial encoding's summarization claim, two-item case.

        Two values sharing everything above the low guard, both carrying
        the same guarded payload, must preserve the payload under integer
        averaging: the zeroed guard absorbs the carry from the low bits.
        """
        high = 0b1010 << 21
        a = bitops.apply_guarded_bit(high | bitops.lsb(low_a, pos - 1),
                                     pos, bit)
        b = bitops.apply_guarded_bit(high | bitops.lsb(low_b, pos - 1),
                                     pos, bit)
        average = (a + b) // 2
        assert bitops.read_guarded_bit(average, pos) == int(bit)


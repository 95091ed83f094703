"""Bit-level primitives implementing the paper's bit notation.

The paper (Sec 2.2) defines, for any numeric value ``x``:

* ``b(x)`` — the number of bits required to represent ``x`` accurately;
* ``msb(x, b)`` — the most significant ``b`` bits of ``x``; if ``b(x) < b``
  the value is left-padded with ``b - b(x)`` zeroes to form a ``b``-bit
  result;
* ``lsb(x, b)`` — the least significant ``b`` bits of ``x``.

Stream values are handled as fixed-width unsigned integers produced by
:class:`repro.core.quantize.Quantizer`, so all helpers here operate on
non-negative Python ints with an explicit ``width``.  Bit index 0 is the
least significant bit.
"""

from __future__ import annotations

from repro.errors import ParameterError


def bit_length(x: int) -> int:
    """Return ``b(x)``, the number of bits needed to represent ``x``.

    Matches the paper's convention that ``b(0) == 1`` (a value still
    occupies one bit position); Python's ``int.bit_length`` returns 0 for
    0, which would make the ``msb`` padding rule degenerate.
    """
    if x < 0:
        raise ParameterError("bit_length is defined for non-negative ints")
    return max(1, x.bit_length())


def _check_width(x: int, width: int) -> None:
    if x < 0:
        raise ParameterError(f"value must be non-negative, got {x}")
    if width <= 0:
        raise ParameterError(f"width must be positive, got {width}")
    if x.bit_length() > width:
        raise ParameterError(
            f"value {x} does not fit in {width} bits "
            f"(needs {x.bit_length()})"
        )


def msb(x: int, b: int, width: int) -> int:
    """Return the most significant ``b`` bits of ``x`` seen as ``width`` bits.

    Implements the paper's ``msb(x, b)`` including the left-padding rule:
    the value is first interpreted as a ``width``-bit word (left padded
    with zeroes), then the top ``b`` bits are extracted.

    >>> msb(0b1011_0000, 4, 8)
    11
    """
    _check_width(x, width)
    if b <= 0:
        raise ParameterError(f"msb bit count must be positive, got {b}")
    if b >= width:
        return x
    return x >> (width - b)


def lsb(x: int, b: int) -> int:
    """Return the least significant ``b`` bits of ``x`` (paper's ``lsb``).

    >>> lsb(0b1011_0110, 4)
    6
    """
    if x < 0:
        raise ParameterError(f"value must be non-negative, got {x}")
    if b <= 0:
        raise ParameterError(f"lsb bit count must be positive, got {b}")
    return x & ((1 << b) - 1)


def get_bit(x: int, position: int) -> int:
    """Return bit ``position`` of ``x`` (0 = least significant)."""
    if position < 0:
        raise ParameterError(f"bit position must be >= 0, got {position}")
    return (x >> position) & 1


def set_bit(x: int, position: int) -> int:
    """Return ``x`` with bit ``position`` forced to 1."""
    if position < 0:
        raise ParameterError(f"bit position must be >= 0, got {position}")
    return x | (1 << position)


def clear_bit(x: int, position: int) -> int:
    """Return ``x`` with bit ``position`` forced to 0."""
    if position < 0:
        raise ParameterError(f"bit position must be >= 0, got {position}")
    return x & ~(1 << position)


def with_bit(x: int, position: int, value: bool | int) -> int:
    """Return ``x`` with bit ``position`` set to ``value``.

    This is the primitive behind the initial encoding's
    ``v[bit] <- wm[i]`` assignment (paper Fig 3).
    """
    return set_bit(x, position) if value else clear_bit(x, position)


def apply_guarded_bit(x: int, position: int, value: bool | int) -> int:
    """Write ``value`` at ``position`` and zero the two adjacent guard bits.

    Implements the initial embedding's triple-write (paper Sec 3.2)::

        v[bit - 1] <- false ; v[bit] <- wm[i] ; v[bit + 1] <- false

    The guard zeroes prevent carry/overflow from corrupting the payload
    bit when subsets are averaged during summarization.  ``position`` must
    leave room for both guards (``position >= 1``).
    """
    if position < 1:
        raise ParameterError(
            f"guarded bit position must be >= 1 to fit the low guard, "
            f"got {position}"
        )
    x = clear_bit(x, position - 1)
    x = with_bit(x, position, value)
    x = clear_bit(x, position + 1)
    return x


def read_guarded_bit(x: int, position: int) -> int:
    """Read back a payload bit written by :func:`apply_guarded_bit`."""
    return get_bit(x, position)


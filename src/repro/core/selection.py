"""Hash-based extreme selection and bit-position derivation (Sec 3.2/4.1).

Selection decides *which* major extremes carry watermark bits and *which*
bit each one carries::

    i = H(msb(ε, β), k1) mod φ        — carry wm[i] iff i < b(wm)

Only a fraction ``b(wm)/φ`` of major extremes are selected; the
one-wayness of H forces Mallory to guess the carrier locations.

The *bit position* inside the alterable low bits is derived differently
by the two generations of the scheme:

* the **initial** scheme (Sec 3.2) uses ``H(msb(ε, β), k1) mod α`` — the
  same variable that selects the bit *value*, which is exactly the
  correlation Mallory's bucket-counting attack exploits;
* the **labeled** scheme (Sec 4.1) uses ``H(label(ε), k1) mod α`` — an
  independent, shape-derived source, defeating the attack.

Both are provided; the ablation benchmark contrasts them under the
correlation attack.  Positions returned leave room for the two guard
bits of the initial encoding (``1 <= position <= α - 2``).
"""

from __future__ import annotations

from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import ParameterError
from repro.util.hashing import KeyedHasher, frame_value


def selection_message(extreme_value: float, params: WatermarkParams,
                      quantizer: Quantizer, label: int = 1) -> bytes:
    """The key-free input ``msb(ε, β); label`` of the selection hash,
    framed for :meth:`KeyedHasher.hash_framed`.

    Detection frames it once per major extreme and hashes it under
    every candidate key.
    """
    return frame_value(
        f"sel:{quantizer.msb(extreme_value, params.msb_bits)}:{label}")


def selection_index(extreme_value: float, params: WatermarkParams,
                    quantizer: Quantizer, hasher: KeyedHasher,
                    label: int = 1) -> int:
    """The raw selection hash ``H(msb(ε, β); label, k1) mod φ``.

    The paper's Sec-3.2 criterion hashes ``msb(ε, β)`` alone; with the
    coarse selection cells a robust deployment needs, that caps the
    number of *distinct* selection outcomes at ``2^β`` — the "repeated
    labels" problem the paper lists among its improvements.  Mixing the
    extreme's label into the hash restores full selection entropy while
    keeping exactly the recoverability properties labels already have
    (a broken label already voids the vote through the bit-encoding
    convention, so no new fragility is introduced).  With ``label=1``
    (the labeling-disabled mode) this reduces to the paper's original
    criterion.
    """
    message = selection_message(extreme_value, params, quantizer, label)
    return hasher.hash_framed(message) % params.phi


def select_watermark_bit(extreme_value: float, wm_length: int,
                         params: WatermarkParams, quantizer: Quantizer,
                         hasher: KeyedHasher, label: int = 1) -> "int | None":
    """Watermark bit index carried by this extreme, or ``None``.

    Implements the Sec-3.2 criterion: the extreme carries ``wm[i]`` iff
    ``H(msb(ε, β); label, k1) mod φ = i`` with ``i < b(wm)``.
    """
    if wm_length < 1:
        raise ParameterError(f"wm_length must be >= 1, got {wm_length}")
    index = selection_index(extreme_value, params, quantizer, hasher, label)
    return index if index < wm_length else None


def bit_position_from_label(label: int, params: WatermarkParams,
                            hasher: KeyedHasher) -> int:
    """Labeled-scheme embedding position (Sec 4.1), guard-safe.

    ``1 + H(label, k1) mod (α - 2)`` — uncorrelated with the embedded
    value because the label derives from preceding stream shape.
    """
    if label <= 0:
        raise ParameterError(f"label must be a positive int, got {label}")
    return 1 + hasher.mod(f"pos:{label}", params.payload_positions)


def bit_position_from_value(extreme_value: float, params: WatermarkParams,
                            quantizer: Quantizer, hasher: KeyedHasher) -> int:
    """Initial-scheme embedding position (Sec 3.2) — value-correlated.

    Kept for the correlation-attack ablation; production embedding uses
    :func:`bit_position_from_label`.
    """
    msb_value = quantizer.msb(extreme_value, params.msb_bits)
    return 1 + hasher.mod(f"pos:{msb_value}", params.payload_positions)

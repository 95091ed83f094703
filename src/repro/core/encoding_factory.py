"""Bit-encoding strategy construction from the :data:`ENCODINGS` table.

The embedder and detector accept either a strategy *name* or a pre-built
strategy object; names resolve through :data:`ENCODINGS`, the paper's
three encodings (Secs 3.2 and 4.3).  Strategies share the interface::

    embed(q_subset, extreme_offset, label, bit)  -> EmbedOutcome
    detect(float_subset, extreme_offset, label)  -> Vote
"""

from __future__ import annotations

from repro.core.encoding_initial import InitialEncoding
from repro.core.encoding_multihash import MultihashEncoding
from repro.core.encoding_quadres import QuadResEncoding
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import ParameterError
from repro.registry import entry
from repro.util.hashing import KeyedHasher

#: ``name -> (strategy class, description)``.
ENCODINGS = {
    "multihash": (MultihashEncoding,
                  "Sec-4.3 multi-hash convention over subset averages "
                  "(default; survives summarization)"),
    "initial": (InitialEncoding,
                "Sec-3.2 guarded single-bit encoding of the extreme value"),
    "quadres": (QuadResEncoding,
                "quadratic-residue prefix encoding "
                "(epsilon-robust value convention)"),
}

#: The encoding names, in table order.
ENCODING_NAMES = tuple(ENCODINGS)


def build_encoding(encoding, params: WatermarkParams, quantizer: Quantizer,
                   hasher: KeyedHasher, **options):
    """Resolve an encoding name (or pass through a strategy object).

    Options are forwarded to the strategy constructor, e.g.
    ``build_encoding("multihash", ..., method="random")`` or
    ``build_encoding("initial", ..., use_label_positions=False)``.  An
    unknown name, or an option the constructor does not accept, raises
    :class:`ParameterError`: both can arrive from outside the program
    (an OPEN frame, a checkpoint).
    """
    if not isinstance(encoding, str):
        required = ("embed", "detect")
        if all(hasattr(encoding, attr) for attr in required):
            return encoding
        raise ParameterError(
            f"encoding object {encoding!r} lacks the strategy interface "
            f"{required}"
        )
    strategy_cls = entry("encoding", ENCODINGS, encoding)
    try:
        return strategy_cls(params, quantizer, hasher, **options)
    except TypeError as exc:
        raise ParameterError(
            f"bad options for encoding {encoding!r}: {exc}") from None

"""Bit-encoding strategy construction, resolved through the registry.

The embedder and detector accept either a strategy *name* or a pre-built
strategy object; names resolve through the central
:class:`repro.registry.ComponentRegistry`, so a newly registered
encoding is immediately constructible here (and visible to the CLI)
without touching this module.  Strategies share the interface::

    embed(q_subset, extreme_offset, label, bit)  -> EmbedOutcome
    detect(float_subset, extreme_offset, label)  -> Vote
"""

from __future__ import annotations

from repro.core.encoding_initial import InitialEncoding
from repro.core.encoding_multihash import MultihashEncoding
from repro.core.encoding_quadres import QuadResEncoding
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.errors import ParameterError, RegistryError
from repro.registry import REGISTRY
from repro.util.hashing import KeyedHasher

REGISTRY.add("encoding", "multihash", MultihashEncoding,
             description="Sec-4.3 multi-hash convention over subset "
                         "averages (default; survives summarization)")
REGISTRY.add("encoding", "initial", InitialEncoding,
             description="Sec-3.2 guarded single-bit encoding of the "
                         "extreme value")
REGISTRY.add("encoding", "quadres", QuadResEncoding,
             description="quadratic-residue prefix encoding "
                         "(epsilon-robust value convention)")


def encoding_names() -> "tuple[str, ...]":
    """Registered encoding names (registry-backed, never hard-coded)."""
    return REGISTRY.names("encoding")


def build_encoding(encoding, params: WatermarkParams, quantizer: Quantizer,
                   hasher: KeyedHasher, **options):
    """Resolve an encoding name (or pass through a strategy object).

    Options are forwarded to the strategy constructor, e.g.
    ``build_encoding("multihash", ..., method="random")`` or
    ``build_encoding("initial", ..., use_label_positions=False)``.  An
    option the constructor does not accept raises
    :class:`ParameterError`, like an unknown name: options can arrive
    from outside the program (an OPEN frame, a checkpoint).
    """
    if not isinstance(encoding, str):
        required = ("embed", "detect")
        if all(hasattr(encoding, attr) for attr in required):
            return encoding
        raise ParameterError(
            f"encoding object {encoding!r} lacks the strategy interface "
            f"{required}"
        )
    try:
        strategy_cls = REGISTRY.get("encoding", encoding)
    except RegistryError as exc:
        # Keep the historical ParameterError contract at this boundary
        # (RegistryError is also a ValueError, but callers catch
        # ParameterError specifically).
        raise ParameterError(str(exc)) from None
    try:
        return strategy_cls(params, quantizer, hasher, **options)
    except TypeError as exc:
        raise ParameterError(
            f"bad options for encoding {encoding!r}: {exc}") from None


def __getattr__(name: str):
    # Backward-compatible ENCODING_NAMES, resolved lazily (PEP 562) so
    # importing this module does not force registry population (which
    # would eagerly import every provider module on any core import).
    if name == "ENCODING_NAMES":
        return encoding_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

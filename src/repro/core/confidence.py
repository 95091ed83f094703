"""Court-time confidence: false-positive math (paper Sec 5).

The scheme's persuasion power is quantified as the probability that the
observed detection evidence arises in *random, un-watermarked* data.
Sec 5 derives:

* per-extreme false-positive probability ``2^(-ω·a(a+1)/2)`` — each of
  the ``a(a+1)/2`` sub-range averages matches the "true" convention with
  probability ``2^-ω``;
* detection-time false-positive after ``t`` seconds of stream at rate ς:
  ``Pfp(t) = (2^(-ω·a(a+1)/2))^(t·ς / (η(σ,δ)·φ))`` — one selected,
  bit-carrying major extreme every ``η·φ`` items;
* the Sec-6 working rule (footnote 5): a detected watermark *bias* of
  ``B`` — net count of extremes voting the embedded way — has
  false-positive probability about ``2^-B``, i.e. confidence
  ``1 - 2^-B``.

Both the paper's closed forms and exact binomial tails are provided; the
exact forms back the library's :class:`DetectionResult.confidence`.
"""

from __future__ import annotations

import math

from repro.errors import ParameterError


def per_extreme_fp(subset_size: int, omega: int = 1,
                   n_constrained: "int | None" = None) -> float:
    """``2^(-ω·c)`` — chance one random extreme fully encodes "true".

    ``n_constrained`` overrides the constraint count (defaults to the
    paper's full set ``a(a+1)/2``); pass the active-set size when the
    computation-reducing technique is in use.
    """
    if subset_size < 1:
        raise ParameterError(f"subset_size must be >= 1, got {subset_size}")
    if omega < 1:
        raise ParameterError(f"omega must be >= 1, got {omega}")
    c = n_constrained if n_constrained is not None else \
        subset_size * (subset_size + 1) // 2
    if c < 1:
        raise ParameterError(f"constraint count must be >= 1, got {c}")
    return 2.0 ** (-omega * c)


def fp_probability(detection_seconds: float, rate_hz: float, eta: float,
                   phi: int, subset_size: int, omega: int = 1,
                   n_constrained: "int | None" = None) -> float:
    """Sec-5 ``Pfp(t)`` for a one-bit watermark.

    >>> fp = fp_probability(2.0, 100.0, 50.0, 5, 5, omega=1)
    >>> fp < 1e-100   # the paper's "close to 100% confidence" example
    True
    """
    if detection_seconds <= 0:
        raise ParameterError("detection_seconds must be positive")
    if rate_hz <= 0 or eta <= 0:
        raise ParameterError("rate_hz and eta must be positive")
    if phi < 1:
        raise ParameterError(f"phi must be >= 1, got {phi}")
    extremes_seen = detection_seconds * rate_hz / (eta * phi)
    per_extreme = per_extreme_fp(subset_size, omega, n_constrained)
    # Work in log-space: these probabilities underflow doubles instantly.
    log_fp = extremes_seen * math.log(per_extreme)
    return math.exp(log_fp) if log_fp > -745.0 else 0.0


def fp_probability_degraded(detection_seconds: float, rate_hz: float,
                            eta: float, phi: int) -> float:
    """Sec-5 worst case: only one ``m_ij`` per extreme survives.

    Each surviving average matches "true" with probability 1/2, so
    ``Pfp = 2^-(number of selected extremes)``.  The paper's example:
    2 seconds at 100 Hz, η = 50, φ = 5 gives "roughly one in a million".
    """
    if detection_seconds <= 0 or rate_hz <= 0 or eta <= 0 or phi < 1:
        raise ParameterError("arguments must be positive")
    extremes_seen = detection_seconds * rate_hz / (eta * phi)
    return 2.0 ** (-extremes_seen)


def confidence_from_bias(bias: float) -> float:
    """Footnote-5 rule: confidence ``1 - 2^-bias`` (clamped to [0, 1]).

    Negative or zero bias yields zero confidence: the data shows no
    evidence of the embedded bit.
    """
    if bias <= 0:
        return 0.0
    return min(1.0, 1.0 - 2.0 ** (-bias))


def exact_bias_fp(n_votes: int, bias: int) -> float:
    """Exact P[net vote >= bias] under the null (fair-coin votes).

    ``n_votes`` extremes each vote +1/-1 with probability 1/2 on random
    data; the false-positive probability of observing a net bias at least
    ``bias`` is a binomial tail.  This refines the ``2^-bias`` rule (which
    is the single-path bound).

    The figure holds only under that fair-coin null.  Wrong-key votes
    that lean one way break it: on a suspect marked with the ``initial``
    encoding a wrong key often reads the owner's zeroed guard bits, so
    its votes lean false.  On 20k-item suspects carrying a "0" payload,
    6-15% of wrong keys reached a two-sided fp below 0.01.
    ``multihash``, ``quadres`` and unmarked suspects stay near the
    nominal rate.

    The tail is summed exactly in integers, each term derived from the
    previous one, and divided once: ``int / int`` is correctly rounded
    and underflows to 0.0, where ``2.0 ** n_votes`` overflows past 1023
    votes.
    """
    if n_votes < 0:
        raise ParameterError(f"n_votes must be >= 0, got {n_votes}")
    if bias <= 0:
        return 1.0
    if bias > n_votes:
        return 0.0
    # net = 2k - n >= bias  <=>  k >= (n + bias) / 2
    k_min = math.ceil((n_votes + bias) / 2)
    term = math.comb(n_votes, k_min)
    total = 0
    for k in range(k_min, n_votes + 1):
        total += term
        # C(n, k + 1) = C(n, k) * (n - k) / (k + 1), exact in integers.
        term = term * (n_votes - k) // (k + 1)
    return total / (1 << n_votes)


def min_segment_items(eta: float, skip: int) -> float:
    """Sec-5 minimum segment enabling better-than-coin-flip detection.

    Two consistent bits from adjacent extremes need correct labels, i.e.
    all the previous ``%`` major extremes: ``η(σ, δ) · %`` items.
    """
    if eta <= 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    if skip < 1:
        raise ParameterError(f"skip must be >= 1, got {skip}")
    return eta * skip


def seconds_to_confidence(target_confidence: float, rate_hz: float,
                          eta: float, phi: int, subset_size: int,
                          omega: int = 1) -> float:
    """Invert :func:`fp_probability`: time needed to reach a confidence.

    Useful for provisioning: "how long must the detector watch the
    stream before the proof is court-ready?"
    """
    if not 0.0 < target_confidence < 1.0:
        raise ParameterError(
            f"target_confidence must be in (0, 1), got {target_confidence}"
        )
    per_extreme = per_extreme_fp(subset_size, omega)
    target_fp = 1.0 - target_confidence
    extremes_needed = math.log(target_fp) / math.log(per_extreme)
    return extremes_needed * eta * phi / rate_hz

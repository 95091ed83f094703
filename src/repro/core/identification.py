"""Key and payload identification across candidate sets.

Court scenarios the offline API leaves to the caller, packaged:

* **Which of my keys marked this stream?**  A distributor watermarks
  each licensed customer's feed with a *different* key (fingerprinting);
  when a leak surfaces, :func:`identify_key` detects against every
  candidate key and ranks the evidence — the leaking customer's key
  stands out with an exponentially better false-positive bound.
* **Is it my payload?**  :func:`verify_payload` condenses a multi-bit
  detection into one decision with an explicit evidence margin.

Statistical note: scanning ``k`` candidate keys multiplies the chance
that *some* clean key shows a given bias by at most ``k`` (union bound);
:class:`KeyVerdict` therefore reports the Bonferroni-adjusted
false-positive alongside the raw one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.confidence import exact_bias_fp
from repro.core.detector import detect_watermark
from repro.core.parallel_detect import DetectionTask, run_tasks
from repro.core.params import WatermarkParams
from repro.errors import ParameterError


@dataclass(frozen=True)
class KeyVerdict:
    """Evidence for one candidate key.

    ``false_positive`` is two-sided: a key that marked a "0" bit drives
    the bias negative just as a "1" drives it positive, so the evidence
    is ``2 · P[|net vote| >= |bias|]`` under the null, capped at 1.
    """

    key_id: str
    bias: int
    votes: int
    false_positive: float
    adjusted_false_positive: float

    @property
    def decisive(self) -> bool:
        """True when even the adjusted bound is below one in a thousand."""
        return self.adjusted_false_positive < 1e-3 and self.bias != 0


def identify_key(values, candidate_keys: dict, wm_length: int = 1,
                 params: "WatermarkParams | None" = None,
                 encoding="multihash", transform_degree: float = 1.0
                 ) -> list[KeyVerdict]:
    """Rank candidate keys by detection evidence (best first).

    ``candidate_keys`` maps an identifier (e.g. a customer name) to that
    customer's secret key.  The stream is scanned once for all of them
    (:func:`repro.core.parallel_detect.run_tasks` shares the scan).
    """
    if not candidate_keys:
        raise ParameterError("candidate_keys must not be empty")
    n_candidates = len(candidate_keys)
    array = np.asarray(values, dtype=np.float64).ravel()
    tasks = [DetectionTask(values=array, wm_length=wm_length, key=key,
                           params=params, encoding=encoding,
                           transform_degree=transform_degree)
             for key in candidate_keys.values()]
    verdicts: list[KeyVerdict] = []
    for key_id, result in zip(candidate_keys, run_tasks(tasks)):
        bias = result.bias(0)
        votes = result.votes(0)
        fp = min(1.0, 2.0 * exact_bias_fp(votes, abs(bias)))
        verdicts.append(KeyVerdict(
            key_id=str(key_id), bias=bias, votes=votes, false_positive=fp,
            adjusted_false_positive=min(1.0, fp * n_candidates)))
    verdicts.sort(key=lambda v: (v.adjusted_false_positive, -abs(v.bias)))
    return verdicts


@dataclass(frozen=True)
class PayloadVerdict:
    """Evidence that a specific multi-bit payload is present."""

    matched_bits: int
    decided_bits: int
    total_bits: int
    net_margin: int

    @property
    def present(self) -> bool:
        """Practical decision rule: most bits decided, all matching,
        with positive net vote margin."""
        return (self.decided_bits >= max(1, self.total_bits // 2)
                and self.matched_bits == self.decided_bits
                and self.net_margin > 0)


def verify_payload(values, payload, key,
                   params: "WatermarkParams | None" = None,
                   encoding="multihash",
                   transform_degree: float = 1.0) -> PayloadVerdict:
    """Test for one specific payload; returns a condensed verdict."""
    from repro.core.watermark import to_bits

    bits = to_bits(payload)
    result = detect_watermark(values, len(bits), key, params=params,
                              encoding=encoding,
                              transform_degree=transform_degree)
    estimate = result.wm_estimate()
    decided = [(est, exp) for est, exp in zip(estimate, bits)
               if est is not None]
    matched = sum(1 for est, exp in decided if est == exp)
    margin = sum((t - f) if bit else (f - t)
                 for t, f, bit in zip(result.buckets_true,
                                      result.buckets_false, bits))
    return PayloadVerdict(matched_bits=matched, decided_bits=len(decided),
                          total_bits=len(bits), net_margin=margin)

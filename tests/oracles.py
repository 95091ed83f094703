"""Scalar reference implementations the property tests compare against.

The library keeps one production path per job.  The seed's scalar code
for three of those jobs lives here instead, with its bodies unchanged,
as the oracles the production paths are property-tested to equal bit
for bit:

* :class:`ScalarMultihash` — the multi-hash convention (paper Sec 4.3):
  the per-candidate random and pruned embedding searches and the
  per-pair detection vote, each probing through
  :func:`~repro.core.encoding_multihash.convention_pattern`;
* :class:`ScalarQuadRes` — the quadratic-residue encoding: the
  distance-ordered search and the detection vote, deciding every prefix
  by Euler's criterion (:func:`~repro.core.encoding_quadres.
  is_quadratic_residue`);
* :func:`zigzag_pivots_scalar` — the per-item zigzag scan of
  :func:`~repro.core.extremes.zigzag_pivots`.

The oracle classes subclass the production encodings and override only
the search and detection methods, so an oracle is a drop-in strategy
object: ``embed`` runs the scalar search, and a single-key
:class:`~repro.core.detector.StreamDetector` given one as its
``encoding`` votes through the scalar ``detect``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.encoding_initial import Vote
from repro.core.encoding_multihash import (
    MultihashEncoding,
    MultihashStats,
    active_pairs,
    convention_pattern,
)
from repro.core.encoding_quadres import QuadResEncoding, is_quadratic_residue
from repro.core.extremes import ZigzagState, _prepare_scan, _zigzag_machine
from repro.errors import EncodingSearchExhausted, ParameterError
from repro.util import bitops


class ScalarMultihash(MultihashEncoding):
    """The multi-hash encoding with the seed's per-candidate loops."""

    def _pattern(self, avg_key: int, label: int) -> int:
        return convention_pattern(self._key, avg_key, label,
                                  self._params.omega, self._algorithm)

    def _search_random(self, q_segment: list[int], label: int,
                       target: int) -> tuple[list[int], MultihashStats]:
        """Paper-baseline exhaustive/randomized search (exponential)."""
        params = self._params
        size = len(q_segment)
        pairs = active_pairs(size, params.active_run_length)
        mask = (1 << params.lsb_bits) - 1
        highs = [q & ~mask for q in q_segment]
        floats = np.asarray(self._quantizer.dequantize_array(q_segment),
                            dtype=np.float64)
        hash_evals = 0
        for iteration in range(1, params.max_search_iterations + 1):
            lows = self._rng.integers(0, mask + 1, size=size)
            candidate = [highs[i] | int(lows[i]) for i in range(size)]
            floats = self._quantizer.dequantize_array(candidate)
            ok = True
            for (i, j) in pairs:
                avg_key = self._quantizer.average_key(floats[i:j + 1])
                hash_evals += 1
                if self._pattern(avg_key, label) != target:
                    ok = False
                    break
            if ok:
                stats = MultihashStats(iterations=iteration,
                                       hash_evaluations=hash_evals,
                                       constraints=len(pairs))
                return candidate, stats
        raise EncodingSearchExhausted(
            f"random search exhausted {params.max_search_iterations} "
            f"iterations for {len(pairs)} constraints"
        )

    def _candidates_by_distance(self, original_low: int,
                                limit: int) -> Iterator[int]:
        """Enumerate low-bit candidates by increasing |candidate - original|.

        Implements the minimize-distance aim: the first satisfying
        configuration found is also (per item) the closest one.
        """
        yield original_low
        distance = 1
        while True:
            emitted = False
            lower = original_low - distance
            upper = original_low + distance
            if lower >= 0:
                yield lower
                emitted = True
            if upper < limit:
                yield upper
                emitted = True
            if not emitted:
                return
            distance += 1

    def _search_pruned(self, q_segment: list[int], label: int,
                       target: int) -> tuple[list[int], MultihashStats]:
        """Backtracking left-to-right search (linear in subset size)."""
        params = self._params
        size = len(q_segment)
        pairs = active_pairs(size, params.active_run_length)
        ends_at: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for (i, j) in pairs:
            ends_at[j].append((i, j))
        mask = (1 << params.lsb_bits) - 1
        limit = mask + 1
        highs = [q & ~mask for q in q_segment]
        original_lows = [q & mask for q in q_segment]
        candidate = list(q_segment)
        floats = np.asarray(self._quantizer.dequantize_array(q_segment),
                            dtype=np.float64)

        iterators: list[Iterator[int]] = [iter(()) for _ in range(size)]
        iterations = 0
        hash_evals = 0
        k = 0
        iterators[0] = self._candidates_by_distance(original_lows[0], limit)
        while 0 <= k < size:
            advanced = False
            for low in iterators[k]:
                iterations += 1
                if iterations > params.max_search_iterations:
                    raise EncodingSearchExhausted(
                        f"pruned search exhausted "
                        f"{params.max_search_iterations} iterations"
                    )
                candidate[k] = highs[k] | low
                floats[k] = self._quantizer.dequantize(candidate[k])
                ok = True
                for (i, j) in ends_at[k]:
                    avg_key = self._quantizer.average_key(floats[i:j + 1])
                    hash_evals += 1
                    if self._pattern(avg_key, label) != target:
                        ok = False
                        break
                if ok:
                    advanced = True
                    break
            if advanced:
                k += 1
                if k < size:
                    iterators[k] = self._candidates_by_distance(
                        original_lows[k], limit)
            else:
                # Exhausted this item's space: restore and backtrack.
                candidate[k] = q_segment[k]
                floats[k] = self._quantizer.dequantize(candidate[k])
                k -= 1
        if k < 0:
            raise EncodingSearchExhausted(
                "pruned search backtracked out of the subset "
                f"({len(pairs)} constraints unsatisfiable in "
                f"{params.lsb_bits}-bit space)"
            )
        stats = MultihashStats(iterations=iterations,
                               hash_evaluations=hash_evals,
                               constraints=len(pairs))
        return candidate, stats

    def detect(self, float_subset: np.ndarray, extreme_offset: int,
               label: int) -> Vote:
        """Per-pair scalar reference of :meth:`MultihashEncoding.detect`."""
        if len(float_subset) == 0:
            raise ParameterError("cannot detect in an empty subset")
        start, end = self._trim(len(float_subset), extreme_offset,
                                self._params.max_subset_detect)
        segment = np.asarray(float_subset[start:end], dtype=np.float64)
        pairs = active_pairs(len(segment), self._params.active_run_length)
        true_target = self._target(True)
        false_target = self._target(False)
        try:
            avg_keys = [self._quantizer.average_key(segment[i:j + 1])
                        for (i, j) in pairs]
        except ValueError:  # a NaN average: abstain, as evidence() does
            return Vote(n_true=0, n_false=0)
        n_true = 0
        n_false = 0
        for avg_key in avg_keys:
            pattern = self._pattern(avg_key, label)
            if pattern == true_target:
                n_true += 1
            elif pattern == false_target:
                n_false += 1
        return Vote(n_true=n_true, n_false=n_false)


class ScalarQuadRes(QuadResEncoding):
    """The quadratic-residue encoding deciding prefixes by Euler's
    criterion, one prefix at a time."""

    def _prefixes(self, q: int) -> list[int]:
        """The longest ``k`` prefixes of the ``value_bits``-wide word."""
        width = self._params.value_bits
        return [bitops.msb(q, width - j, width) for j in range(self._k)]

    def _value_matches_scalar(self, q: int, bit: bool) -> bool:
        """Per-prefix Euler-criterion reference (the oracle)."""
        want = bool(bit)
        return all(is_quadratic_residue(p, self._prime) == want
                   for p in self._prefixes(q))

    def _encode_value(self, q: int, bit: bool) -> tuple[int, int]:
        """Return ``(new_q, iterations)`` for a single subset member."""
        mask = (1 << self._params.lsb_bits) - 1
        high = q & ~mask
        original_low = q & mask
        limit = mask + 1
        iterations = 0
        max_iterations = self._params.max_search_iterations
        # Distance-ordered scan of the low-bit space (minimal alteration).
        for distance in range(0, limit):
            for low in ({original_low} if distance == 0 else
                        {original_low - distance, original_low + distance}):
                if not 0 <= low < limit:
                    continue
                iterations += 1
                if iterations > max_iterations:
                    raise EncodingSearchExhausted(
                        "quadratic-residue search exhausted "
                        f"{max_iterations} iterations"
                    )
                candidate = high | low
                if self._value_matches_scalar(candidate, bit):
                    return candidate, iterations
        raise EncodingSearchExhausted(
            f"no low-bit configuration satisfies {self._k} prefixes"
        )

    def detect(self, float_subset: np.ndarray, extreme_offset: int,
               label: int) -> Vote:
        """Per-member scalar reference of :meth:`QuadResEncoding.detect`."""
        if len(float_subset) == 0:
            raise ParameterError("cannot detect in an empty subset")
        n_true = 0
        n_false = 0
        for value in float_subset:
            q = self._quantizer.quantize(float(value))
            if self._value_matches_scalar(q, True):
                n_true += 1
            elif self._value_matches_scalar(q, False):
                n_false += 1
        return Vote(n_true=n_true, n_false=n_false)


def zigzag_pivots_scalar(values, prominence: float,
                         state: "ZigzagState | None" = None,
                         offset: int = 0
                         ) -> tuple[list[tuple[int, int]], ZigzagState]:
    """Per-item reference scan — the seed implementation, kept verbatim.

    :func:`~repro.core.extremes.zigzag_pivots` is property-tested to be
    bit-identical to this on random, noisy and plateau streams,
    including chunked continuation.
    """
    st = _prepare_scan(prominence, state, offset)
    pivots: list[tuple[int, int]] = []
    arr = np.asarray(values, dtype=np.float64).ravel()
    _zigzag_machine(range(offset, offset + arr.size), arr.tolist(),
                    prominence, st, pivots)
    return pivots, st

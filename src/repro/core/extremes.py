"""Extremes, characteristic subsets, and majorness (paper Sec 2.2).

An *extreme* is a local minimum or maximum of the stream.  Its
*characteristic subset of radius δ*, ``ξ(ε, δ)``, is the contiguous run
of items around the extreme whose values stay within δ of the extreme's
value.  A *major extreme of degree σ and radius δ* is one whose subset is
fat enough that some member survives any uniform sampling of degree σ —
operationally ``|ξ(ε, δ)| >= σ`` (with the paper's optional relaxation:
subsets smaller than σ are accepted when ``|ξ|/σ`` exceeds a survival
ratio, Sec 3.2).

Extreme *detection* here is a prominence-gated zigzag: a candidate
becomes a confirmed extreme only once the stream has moved at least
``prominence`` away from it in the opposite direction.  The paper keeps
this filter implicit (its streams had controlled fluctuation η(σ, δ));
making it explicit is what keeps the extreme sequence stable on noisy
data and under the small value perturbations introduced by embedding —
alterations are confined to the low ``alpha`` bits, orders of magnitude
below any sensible prominence, so embedder and detector agree on the
extreme sequence.

The zigzag supports *stateful continuation* (:class:`ZigzagState`): the
single-pass embedder advances its window past each processed extreme and
resumes the scan mid-slope; continuation reproduces exactly the pivots a
whole-array scan would find, which the property-based test-suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.util.validation import as_float_array

#: Kind markers for extremes.
MAXIMUM = 1
MINIMUM = -1


@dataclass(frozen=True)
class Extreme:
    """A confirmed stream extreme with its characteristic subset.

    Indices are *absolute* stream positions (the embedder adds its window
    offset), ``subset_start``/``subset_end`` are inclusive bounds of
    ``ξ(ε, δ)``.
    """

    index: int
    value: float
    kind: int
    subset_start: int
    subset_end: int

    @property
    def subset_size(self) -> int:
        """Number of items in the characteristic subset, ``|ξ(ε, δ)|``."""
        return self.subset_end - self.subset_start + 1

    def is_major(self, sigma: int, relaxation: float = 1.0) -> bool:
        """Majorness test of degree ``sigma``.

        With ``relaxation == 1.0`` this is the strict ``|ξ| >= σ`` rule;
        smaller values implement the paper's fallback ("subsets smaller
        than σ that guarantee an acceptable chance of survival, e.g.
        ``|ξ|/σ > 70%``").
        """
        if sigma < 1:
            raise ParameterError(f"sigma must be >= 1, got {sigma}")
        if not 0.0 < relaxation <= 1.0:
            raise ParameterError(
                f"relaxation must be in (0, 1], got {relaxation}"
            )
        return self.subset_size >= sigma * relaxation


@dataclass
class ZigzagState:
    """Resumable scan state: current trend and best candidate so far.

    ``trend`` is 0 while the initial direction is unknown, else
    ``MAXIMUM``/``MINIMUM`` meaning "currently tracking a candidate of
    that kind".  Candidates store absolute indices.  ``origin`` records
    the first index ever seen by this scan so that the boundary item of
    a fresh scan is never reported as an extreme (a monotone stream has
    no extremes, even though its first item is technically a running
    min/max).
    """

    trend: int = 0
    max_index: int = 0
    max_value: float = float("-inf")
    min_index: int = 0
    min_value: float = float("inf")
    origin: "int | None" = None

    @classmethod
    def fresh(cls) -> "ZigzagState":
        """State for a scan starting with unknown direction."""
        return cls()

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """JSON-compatible snapshot of the continuation state.

        The ±infinity sentinels of a direction-unknown scan are encoded
        as the strings ``"inf"`` / ``"-inf"`` so the state stays valid
        under strict JSON parsers.
        """
        def encode(value: float):
            if value == float("inf"):
                return "inf"
            if value == float("-inf"):
                return "-inf"
            return float(value)

        return {
            "trend": self.trend,
            "max_index": self.max_index,
            "max_value": encode(self.max_value),
            "min_index": self.min_index,
            "min_value": encode(self.min_value),
            "origin": self.origin,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ZigzagState":
        """Rebuild a continuation state from :meth:`to_state` output."""
        return cls(
            trend=int(state["trend"]),
            max_index=int(state["max_index"]),
            max_value=float(state["max_value"]),
            min_index=int(state["min_index"]),
            min_value=float(state["min_value"]),
            origin=None if state["origin"] is None else int(state["origin"]))


def _zigzag_machine(indices, values, prominence: float, st: ZigzagState,
                    pivots: "list[tuple[int, int]]") -> None:
    """The prominence-gated zigzag state machine over (index, value) pairs.

    ``indices`` are absolute stream positions; the machine mutates ``st``
    and appends confirmed pivots.  This is the seed's per-item scan body,
    factored out so the vectorized :func:`zigzag_pivots` can drive it
    over the reduced candidate sequence and the per-item reference in
    ``tests/oracles.py`` over every item.
    """
    for i, v in zip(indices, values):
        if st.trend == 0:
            if v > st.max_value:
                st.max_index, st.max_value = i, v
            if v < st.min_value:
                st.min_index, st.min_value = i, v
            if st.max_value - v >= prominence:
                if st.max_index != st.origin:
                    pivots.append((st.max_index, MAXIMUM))
                st.trend = MINIMUM
                st.min_index, st.min_value = i, v
            elif v - st.min_value >= prominence:
                if st.min_index != st.origin:
                    pivots.append((st.min_index, MINIMUM))
                st.trend = MAXIMUM
                st.max_index, st.max_value = i, v
        elif st.trend == MAXIMUM:
            if v > st.max_value:
                st.max_index, st.max_value = i, v
            elif st.max_value - v >= prominence:
                pivots.append((st.max_index, MAXIMUM))
                st.trend = MINIMUM
                st.min_index, st.min_value = i, v
        else:  # tracking a minimum candidate
            if v < st.min_value:
                st.min_index, st.min_value = i, v
            elif v - st.min_value >= prominence:
                pivots.append((st.min_index, MINIMUM))
                st.trend = MAXIMUM
                st.max_index, st.max_value = i, v


def _prepare_scan(prominence: float, state: "ZigzagState | None",
                  offset: int) -> ZigzagState:
    if prominence <= 0:
        raise ParameterError(f"prominence must be positive, got {prominence}")
    st = state if state is not None else ZigzagState.fresh()
    if st.origin is None:
        st.origin = offset
    return st


def zigzag_pivots(values: np.ndarray, prominence: float,
                  state: "ZigzagState | None" = None,
                  offset: int = 0) -> tuple[list[tuple[int, int]], ZigzagState]:
    """Confirmed alternating pivots of ``values``.

    Parameters
    ----------
    values:
        The scan range (e.g. the current window contents).
    prominence:
        Minimum counter-move that confirms a pivot.
    state:
        Resumable scan state; ``None`` starts a fresh scan.
    offset:
        Absolute index of ``values[0]`` (pivot indices are absolute).

    Returns
    -------
    (pivots, state):
        ``pivots`` — list of ``(absolute_index, kind)`` confirmed within
        this range; ``state`` — continuation state for the next range.

    Notes
    -----
    The scan is vectorized by *candidate reduction*: the state machine's
    transitions (candidate updates use strict comparisons, confirmations
    compare against running extremes) can only take effect at monotone-run
    boundaries — the first occurrence of each run's terminal value — plus
    the range's first item (where a carried-in extreme may confirm
    immediately).  Those candidates are extracted with array ops and the
    exact per-item machine (:func:`_zigzag_machine`) runs over the
    reduced sequence, producing pivots *and* continuation state
    bit-identical to running it over every item (property-tested).
    """
    st = _prepare_scan(prominence, state, offset)
    pivots: list[tuple[int, int]] = []
    arr = np.asarray(values, dtype=np.float64).ravel()
    n = arr.size
    if n == 0:
        return pivots, st
    if n <= 32:
        _zigzag_machine(range(offset, offset + n), arr.tolist(),
                        prominence, st, pivots)
        return pivots, st
    moves = np.nonzero(np.diff(arr))[0]
    if moves.size == 0:
        candidates = np.asarray([0])
    else:
        rising = arr[moves + 1] > arr[moves]
        turns = np.nonzero(rising[:-1] != rising[1:])[0]
        # Run vertices are first occurrences of each run's extremum; the
        # final movement's endpoint covers the (possibly partial) last
        # run.  Trailing-plateau items past it are no-ops: strict
        # comparisons skip them and any confirmation they could make was
        # already made at the first occurrence of their value.  The
        # concatenation is already strictly increasing: vertices are
        # >= 1, and the last movement's endpoint exceeds every turn
        # vertex (turns index into movements before the last one).
        candidates = np.concatenate(
            ([0], moves[turns] + 1, [moves[-1] + 1]))
    if offset:
        indices = (candidates + offset).tolist()
    else:
        indices = candidates.tolist()
    _zigzag_machine(indices, arr[candidates].tolist(), prominence, st,
                    pivots)
    return pivots, st


def characteristic_subset(values: np.ndarray, index: int,
                          delta: float) -> tuple[int, int]:
    """Inclusive bounds of ``ξ(ε, δ)`` around ``values[index]``.

    Expands left and right while items stay within ``delta`` of the
    extreme's value; contiguity is inherent to the expansion (paper's
    "all the items between i and the extreme also belong").
    """
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    if not 0 <= index < n:
        raise ParameterError(f"extreme index {index} outside array of {n}")
    # Typical subsets are a dozen items wide: one boxing of a small
    # probe around the extreme plus a Python-float scan beats both the
    # seed's per-element array indexing and full-block ufunc dispatch.
    # Comparisons are the same IEEE doubles either way (``tolist``
    # round-trips float64 exactly), so the bounds are bit-identical.
    # Fat subsets fall through to vectorized block scans.
    probe = 16
    lo = max(0, index - probe)
    hi = min(n, index + 1 + probe)
    vals = values[lo:hi].tolist()
    center = vals[index - lo]
    local = index - lo
    while local > 0 and abs(vals[local - 1] - center) < delta:
        local -= 1
    start = lo + local
    if local == 0 and lo > 0:
        # The probe's left edge is still within delta: continue in
        # vectorized blocks.
        block = 64
        while start > 0:
            block_lo = max(0, start - block)
            bad = (np.abs(values[block_lo:start] - center)
                   >= delta).nonzero()[0]
            if bad.size:
                start = block_lo + int(bad[-1]) + 1
                break
            start = block_lo
    local = index - lo
    limit = len(vals) - 1
    while local < limit and abs(vals[local + 1] - center) < delta:
        local += 1
    end = lo + local
    if local == limit and hi < n:
        block = 64
        last = n - 1
        while end < last:
            block_hi = min(n, end + 1 + block)
            bad = (np.abs(values[end + 1:block_hi] - center)
                   >= delta).nonzero()[0]
            if bad.size:
                end += int(bad[0])
                break
            end = block_hi - 1
    return start, end


def find_extremes(values, prominence: float, delta: float,
                  offset: int = 0) -> list[Extreme]:
    """All confirmed extremes of an array, with characteristic subsets.

    Offline counterpart of the embedder's windowed scan; used by the
    detector (which is allowed to buffer a segment) and by experiments.
    """
    array = as_float_array(values, "values")
    pivots, _ = zigzag_pivots(array, prominence)
    out: list[Extreme] = []
    for absolute_index, kind in pivots:
        local = absolute_index  # offset applied only to reported indices
        start, end = characteristic_subset(array, local, delta)
        out.append(Extreme(index=absolute_index + offset,
                           value=float(array[local]), kind=kind,
                           subset_start=start + offset,
                           subset_end=end + offset))
    return out


def find_major_extremes(values, prominence: float, delta: float,
                        sigma: int, relaxation: float = 1.0,
                        offset: int = 0) -> list[Extreme]:
    """Extremes passing the majorness test of degree ``sigma``."""
    return [e for e in find_extremes(values, prominence, delta, offset)
            if e.is_major(sigma, relaxation)]


def average_subset_size(values, prominence: float, delta: float) -> float:
    """Mean ``|ξ(ε, δ)|`` over all extremes of the array.

    This is the stream statistic the degree-estimation procedure
    (Sec 4.2) preserves from the original stream: transformed streams
    have proportionally thinner subsets, and the ratio estimates the
    transform degree ρ.  Returns 0.0 when the array has no confirmed
    extremes.
    """
    extremes = find_extremes(values, prominence, delta)
    if not extremes:
        return 0.0
    return float(np.mean([e.subset_size for e in extremes]))


def estimate_eta(values, prominence: float, delta: float,
                 sigma: int, relaxation: float = 1.0) -> float:
    """Measured ``η(σ, δ)``: items per major extreme.

    Returns ``inf`` when the array contains no major extreme (useful for
    calibration sweeps that probe overly strict parameters).
    """
    array = as_float_array(values, "values")
    majors = find_major_extremes(array, prominence, delta, sigma, relaxation)
    if not majors:
        return float("inf")
    return array.size / len(majors)

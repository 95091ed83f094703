"""Shared single-pass stream scanning for the embedder and detector.

Both `wm_embed` and `wm_detect` (paper Figs 3 and 4) run the same outer
loop: maintain the finite window, find the next confirmed extreme,
compute its characteristic subset, test majorness, derive the label,
apply the selection criterion, act on the extreme (embed or decode) and
*advance the window past it*.  :class:`StreamScanner` implements that
loop once; the embedder subclasses it with its ``_handle_selected``
action, and the detector replaces ``_handle_major`` so that one label
serves the selection and vote of every key it screens.

Properties maintained:

* **single pass / bounded memory** — each item enters the window once;
  once evicted it is never touched again.  Auxiliary state (zigzag
  candidates, label history, voting buckets) is O(λ·% + b(wm)), the
  "equivalent amounts of arbitrary data" the window model allows;
* **continuation-exactness** — the incremental zigzag yields the same
  pivot sequence a whole-array scan would (property-tested), so offline
  detection and streaming detection agree;
* **graceful degradation** — extremes evicted before confirmation
  (window too small for the stream's η) are counted, not silently lost.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.extremes import Extreme, ZigzagState, characteristic_subset, zigzag_pivots
from repro.core.labels import StreamingLabeler
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.core.selection import select_watermark_bit
from repro.errors import ParameterError
from repro.util.hashing import KeyedHasher


@dataclass
class ScanCounters:
    """Shared bookkeeping of one scanning pass."""

    items: int = 0
    extremes_confirmed: int = 0
    majors: int = 0
    warmup_skips: int = 0
    selected: int = 0
    missed_evictions: int = 0
    subset_size_sum: int = 0

    @property
    def average_subset_size(self) -> float:
        """Mean ``|ξ(ε, δ)|`` over confirmed extremes (Sec 4.2 reference)."""
        if self.extremes_confirmed == 0:
            return 0.0
        return self.subset_size_sum / self.extremes_confirmed

    @property
    def eta_estimate(self) -> float:
        """Measured items per major extreme, ``η(σ, δ)``."""
        if self.majors == 0:
            return float("inf")
        return self.items / self.majors

    def to_dict(self) -> dict:
        """JSON-compatible snapshot of every counter.

        Derived from the dataclass fields so a newly added counter
        round-trips through checkpoints automatically; every counter is
        an int, so a shallow copy suffices.
        """
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScanCounters":
        """Rebuild counters from :meth:`to_dict` output.

        Missing fields default to 0 and unknown fields are ignored, so a
        checkpoint written before a counter existed (or after one was
        retired) still restores.
        """
        return cls(**{f.name: int(data.get(f.name, 0))
                      for f in dataclasses.fields(cls)})


class StreamScanner:
    """Base class: windowed, single-pass extreme scanning.

    Subclasses override :meth:`_handle_selected` (and may override
    :meth:`_handle_major` for label-independent behaviour).
    """

    def __init__(self, params: WatermarkParams, quantizer: Quantizer,
                 hasher: KeyedHasher, wm_length: int,
                 effective_sigma: "int | None" = None,
                 require_labels: bool = True) -> None:
        from repro.streams.window import SlidingWindow  # local: avoid cycle

        params.validate_for_watermark(wm_length)
        self._params = params
        self._quantizer = quantizer
        self._hasher = hasher
        self._wm_length = wm_length
        self._sigma = effective_sigma if effective_sigma is not None \
            else params.sigma
        if self._sigma < 1:
            raise ParameterError(f"effective sigma must be >= 1, got {self._sigma}")
        self._require_labels = require_labels
        # Fixed-parameter form of Extreme.is_major's threshold test.
        self._major_threshold = self._sigma * params.majority_relaxation
        self._window = SlidingWindow(params.window_size)
        self._zigzag = ZigzagState.fresh()
        self._pending: deque[tuple[int, int]] = deque()
        self._labeler = StreamingLabeler(params.lambda_bits, params.skip,
                                         quantizer, params.label_msb_bits)
        self._next_index = 0
        self.counters = ScanCounters()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def process(self, values) -> np.ndarray:
        """Feed a chunk of stream values; return the released output items.

        Output items are final: the embedder has already rewritten any it
        intended to rewrite.  Ingestion is internally sub-batched to a
        fraction of the window so that pivot processing keeps up with
        eviction — pushing more than the window holds before draining
        would silently discard unprocessed extremes.
        """
        array = np.asarray(values, dtype=np.float64).ravel()
        released: list[np.ndarray] = []
        batch = self._params.scan_batch
        for batch_start in range(0, array.size, batch):
            sub = array[batch_start:batch_start + batch]
            chunk_start = self._next_index
            self._admit_chunk(sub)
            evicted = self._window.push_chunk(sub)
            if evicted.size:
                released.append(evicted)
            self._next_index += sub.size
            self.counters.items += sub.size
            pivots, self._zigzag = zigzag_pivots(
                sub, self._params.prominence, self._zigzag,
                offset=chunk_start)
            self._pending.extend(pivots)
            if self._pending:
                released.extend(self._drain_pending())
        if not released:
            return np.empty(0, dtype=np.float64)
        return np.concatenate(released)

    def finalize(self) -> np.ndarray:
        """Drain every remaining item at end-of-stream."""
        released = self._drain_pending()
        released.append(self._window.flush_array())
        return np.concatenate(released)

    @property
    def items_pending(self) -> int:
        """Ingested items still held back by the window (not yet released).

        ``counters.items - items_pending`` is therefore the number of
        output items this scanner has released so far — the output-side
        offset a network peer needs to deduplicate redelivered chunks
        after a resume (see :mod:`repro.server`).  Restoring a
        checkpoint restores the window, so the property stays correct
        across :meth:`restore_scan_state`.
        """
        return len(self._window)

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def scan_state(self) -> dict:
        """JSON-compatible snapshot of the full scanning state.

        Captures everything the outer loop owns: window contents, zigzag
        continuation, pending unconfirmed pivots, label history, the
        absolute stream cursor and the counters.  Configuration (params,
        key, encoding) is *not* included — it is the secret the caller
        re-supplies on resume.  Restoring this state into a scanner
        built with the same configuration continues the scan exactly
        where it stopped (bit-identical output, property-tested).
        """
        return {
            "window": self._window.to_state(),
            "zigzag": self._zigzag.to_state(),
            "pending": [[int(index), int(kind)]
                        for index, kind in self._pending],
            "label_history": self._labeler.history(),
            "next_index": self._next_index,
            "counters": self.counters.to_dict(),
        }

    def restore_scan_state(self, state: dict) -> None:
        """Load a :meth:`scan_state` snapshot into this scanner.

        The scanner must have been constructed with the same
        configuration (params, window size, labeling setup) that
        produced the snapshot; only dynamic state is replaced.
        """
        from repro.streams.window import SlidingWindow  # local: avoid cycle

        window = SlidingWindow.from_state(state["window"])
        if window.capacity != self._params.window_size:
            raise ParameterError(
                f"checkpoint window capacity {window.capacity} does not "
                f"match configured window_size {self._params.window_size}"
            )
        self._window = window
        self._zigzag = ZigzagState.from_state(state["zigzag"])
        self._pending = deque((int(index), int(kind))
                              for index, kind in state["pending"])
        self._labeler.restore(state["label_history"])
        self._next_index = int(state["next_index"])
        self.counters = ScanCounters.from_dict(state["counters"])

    def run(self, values, chunk_size: int = 4096) -> np.ndarray:
        """Convenience: stream an in-memory array through the scanner."""
        array = np.asarray(values, dtype=np.float64).ravel()
        if chunk_size < 1:
            raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
        pieces: list[np.ndarray] = []
        for start in range(0, array.size, chunk_size):
            pieces.append(self.process(array[start:start + chunk_size]))
        pieces.append(self.finalize())
        return np.concatenate(pieces) if pieces else np.asarray([])

    # ------------------------------------------------------------------
    # the shared outer loop
    # ------------------------------------------------------------------
    def _recenter(self, window_values: np.ndarray, local: int,
                  current_size: int) -> "int | None":
        """Snap a suspiciously thin pivot onto the adjacent plateau.

        Part of the robustness ("hysteresis") suite: a targeted or random
        value spike can displace a pivot off its plateau, shrinking the
        apparent characteristic subset and demoting a genuine major
        extreme — which desynchronizes the label chain.  When the pivot's
        subset is thinner than the majorness degree but a same-plateau
        neighbour (value within ``prominence``) carries a subset at least
        twice as fat and major-sized, the neighbour is the real extreme.
        Clean streams never trigger this (their pivots already own the
        fattest subsets), so embedder/detector symmetry is preserved.
        """
        n = len(window_values)
        radius = self._params.max_subset_detect
        pivot_value = float(window_values[local])
        best_offset: "int | None" = None
        best_size = current_size
        for offset in range(max(0, local - radius),
                            min(n - 1, local + radius) + 1):
            if offset == local:
                continue
            if abs(float(window_values[offset]) - pivot_value) \
                    >= self._params.prominence:
                continue
            start, end = characteristic_subset(window_values, offset,
                                               self._params.delta)
            size = end - start + 1
            if size > best_size:
                best_offset, best_size = offset, size
        if best_offset is None:
            return None
        if best_size >= max(self._sigma, 2 * current_size):
            return best_offset
        return None

    def _drain_pending(self) -> "list[np.ndarray]":
        released: "list[np.ndarray]" = []
        window = self._window
        counters = self.counters
        pending = self._pending
        delta = self._params.delta
        recenter_enabled = self._params.recenter_extremes
        sigma = self._sigma
        # is_major() with fixed (σ, relaxation) is this threshold test;
        # parameters were validated at construction time.
        major_threshold = self._major_threshold
        while pending:
            index, kind = pending.popleft()
            start_index = window.start_index
            if index < start_index:
                # Confirmed after its data already left the window: the
                # window is undersized for this stream's eta.
                counters.missed_evictions += 1
                continue
            local = index - start_index
            window_values = window.values()
            start, end = characteristic_subset(window_values, local, delta)
            if recenter_enabled and end - start + 1 < sigma:
                recentered = self._recenter(window_values, local,
                                            end - start + 1)
                if recentered is not None:
                    local = recentered
                    index = local + start_index
                    start, end = characteristic_subset(window_values, local,
                                                       delta)
            size = end - start + 1
            counters.extremes_confirmed += 1
            counters.subset_size_sum += size
            if size >= major_threshold:
                counters.majors += 1
                extreme = Extreme(
                    index=index, value=float(window_values[local]),
                    kind=kind, subset_start=start + start_index,
                    subset_end=end + start_index)
                self._handle_major(extreme, window_values, local, start, end)
            released.append(window.advance_array(local + 1))
        return released

    def _reference_value(self, extreme: Extreme,
                         window_values: np.ndarray,
                         start: int, end: int) -> float:
        """The value representing this extreme in labels and selection.

        With ``robust_extreme_value`` (the library's realization of the
        paper's Sec-4 "hysteresis" improvement against targeted extreme-
        value alteration) this is the *characteristic-subset mean*: it is
        stable under ε-noise (averaging), under sampling (the survivors'
        mean stays within δ of the full-subset mean) and under
        summarization (chunk averages preserve the subset mean).  With
        the flag off, the raw extreme value is used — the paper's
        original Sec-4.1 formulation.
        """
        if self._params.robust_extreme_value:
            segment = window_values[start:end + 1]
            # np.add.reduce(x) / n is exactly np.mean's computation
            # (pairwise sum, then true-divide) without the wrapper
            # machinery; this runs once per confirmed extreme.
            return float(np.add.reduce(segment) / segment.size)
        return extreme.value

    def _handle_major(self, extreme: Extreme, window_values: np.ndarray,
                      local: int, start: int, end: int) -> None:
        """Label + selection for one major extreme, then dispatch."""
        reference = self._reference_value(extreme, window_values, start, end)
        label = self._labeler.preview(reference)
        if label is None and self._require_labels:
            self.counters.warmup_skips += 1
            self._labeler.push(reference)
            return
        effective_label = label if label is not None else 1
        bit_index = select_watermark_bit(reference, self._wm_length,
                                         self._params, self._quantizer,
                                         self._hasher, effective_label)
        if bit_index is None:
            self._labeler.push(reference)
            return
        self.counters.selected += 1
        post_value = self._handle_selected(extreme, window_values, local,
                                           start, end, effective_label,
                                           bit_index)
        self._labeler.push(post_value)

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _admit(self, value: float) -> None:
        """Called for every incoming item (quality monitor hook)."""

    def _admit_chunk(self, values: np.ndarray) -> None:
        """Batch form of :meth:`_admit`; base ingestion calls only this.

        The default fans out to :meth:`_admit` per item when a subclass
        overrides it, and is a no-op otherwise so the vectorized hot
        path skips per-item Python calls entirely.
        """
        if type(self)._admit is not StreamScanner._admit:
            for value in values.tolist():
                self._admit(value)

    def _handle_selected(self, extreme: Extreme, window_values: np.ndarray,
                         local: int, start: int, end: int, label: int,
                         bit_index: int) -> float:
        """Act on a selected extreme; return its (possibly new) value."""
        raise NotImplementedError

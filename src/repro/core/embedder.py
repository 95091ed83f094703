"""Single-pass watermark embedding (paper Figs 3 and 5).

:class:`StreamWatermarker` is the production embedder: it consumes the
stream chunk-by-chunk through the finite window, identifies major
extremes, labels them, applies the selection criterion and hands the
characteristic subset to the configured bit-encoding strategy.  Quality
constraints (Sec 4.4) are consulted per alteration, with rollback.

Offline convenience: :func:`watermark_stream` runs the whole pipeline
over an in-memory array and returns ``(marked_values, report)``.

All values entering the embedder must already be normalized into
``(-0.5, 0.5)`` — see :class:`repro.streams.normalize.Normalizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.encoding_factory import build_encoding
from repro.core.extremes import Extreme
from repro.core.params import WatermarkParams
from repro.core.quality import Alteration, QualityMonitor
from repro.core.quantize import Quantizer
from repro.core.scanner import ScanCounters, StreamScanner
from repro.core.watermark import to_bits
from repro.errors import EncodingSearchExhausted, ParameterError
from repro.util.hashing import KeyedHasher


@dataclass
class EmbedReport:
    """Everything the rights owner should persist alongside the key.

    ``average_subset_size`` is the Sec-4.2 reference statistic the
    detector needs to estimate transform degrees from isolated segments;
    the alteration aggregates back the Sec-6.4 data-quality experiments.
    """

    counters: ScanCounters = field(default_factory=ScanCounters)
    embedded: int = 0
    search_failures: int = 0
    quality_rollbacks: int = 0
    total_search_iterations: int = 0
    altered_items: int = 0
    sum_abs_alteration: float = 0.0
    max_abs_alteration: float = 0.0

    @property
    def average_subset_size(self) -> float:
        """Reference ``|ξ(ε, δ)|`` average for degree estimation."""
        return self.counters.average_subset_size

    @property
    def eta_estimate(self) -> float:
        """Measured ``η(σ, δ)`` of the embedded stream."""
        return self.counters.eta_estimate

    @property
    def mean_abs_alteration(self) -> float:
        """Average absolute change per altered item."""
        if self.altered_items == 0:
            return 0.0
        return self.sum_abs_alteration / self.altered_items

    def summary(self) -> dict:
        """Flat dict for logs and the ``benchmarks/results/`` tables."""
        c = self.counters
        return {
            "items": c.items,
            "extremes": c.extremes_confirmed,
            "majors": c.majors,
            "selected": c.selected,
            "embedded": self.embedded,
            "warmup_skips": c.warmup_skips,
            "search_failures": self.search_failures,
            "quality_rollbacks": self.quality_rollbacks,
            "missed_evictions": c.missed_evictions,
            "eta_estimate": self.eta_estimate,
            "average_subset_size": self.average_subset_size,
            "altered_items": self.altered_items,
            "max_abs_alteration": self.max_abs_alteration,
        }


class StreamWatermarker(StreamScanner):
    """Streaming embedder: push chunks in, get watermarked chunks out.

    Parameters
    ----------
    watermark:
        Payload (text / bytes / bit string / bit list); see
        :func:`repro.core.watermark.to_bits`.
    key:
        Secret ``k1`` (bytes, str or int).
    params:
        :class:`WatermarkParams`; defaults are the Sec-6 reference setup.
    encoding:
        ``"multihash"`` (default), ``"initial"`` or ``"quadres"`` — or a
        pre-built strategy object.
    monitor:
        Optional :class:`QualityMonitor` with semantic constraints.
    require_labels:
        ``False`` disables the Sec-4.1 labeling (pure Sec-3.2 mode, used
        by the correlation-attack ablation).
    """

    def __init__(self, watermark, key, params: "WatermarkParams | None" = None,
                 encoding="multihash",
                 monitor: "QualityMonitor | None" = None,
                 require_labels: bool = True,
                 encoding_options: "dict | None" = None) -> None:
        self._wm_bits = to_bits(watermark)
        params = params or WatermarkParams()
        quantizer = Quantizer(params.value_bits, params.avg_extra_bits)
        hasher = key if isinstance(key, KeyedHasher) else KeyedHasher(key)
        super().__init__(params, quantizer, hasher, len(self._wm_bits),
                         require_labels=require_labels)
        self._encoding = build_encoding(encoding, params, quantizer, hasher,
                                        **(encoding_options or {}))
        self._monitor = monitor
        self.report = EmbedReport(counters=self.counters)

    # ------------------------------------------------------------------
    @property
    def watermark_bits(self) -> list[bool]:
        """The payload being embedded (defensive copy)."""
        return list(self._wm_bits)

    @property
    def encoding(self):
        """The bit-encoding strategy object this embedder drives."""
        return self._encoding

    def encoding_stats(self) -> dict:
        """Lifetime telemetry from the encoding strategy, if it keeps any.

        Pull-based observability hook (STATUS snapshots): encodings that
        track cumulative search/memo totals expose ``stats_snapshot()``;
        strategies without one report an empty dict.
        """
        snapshot = getattr(self._encoding, "stats_snapshot", None)
        return snapshot() if snapshot is not None else {}

    def restore_scan_state(self, state: dict) -> None:
        """Load a checkpoint and re-tie the report to the new counters.

        The base restore replaces ``self.counters`` with a fresh object;
        the embed report must keep aliasing it or its statistics would
        freeze at the checkpointed values while scanning continues.
        """
        super().restore_scan_state(state)
        self.report.counters = self.counters

    def _admit(self, value: float) -> None:
        if self._monitor is not None:
            self._monitor.admit(value)

    def _admit_chunk(self, values: np.ndarray) -> None:
        if self._monitor is not None:
            for value in values.tolist():
                self._monitor.admit(value)

    def _handle_selected(self, extreme: Extreme, window_values: np.ndarray,
                         local: int, start: int, end: int, label: int,
                         bit_index: int) -> float:
        pre_reference = self._reference_value(extreme, window_values,
                                              start, end)
        bit = self._wm_bits[bit_index]
        subset = window_values[start:end + 1]
        subset_values = subset.tolist()
        # Scalar quantization beats the array path here: subsets are a
        # dozen items, below the size where ufunc dispatch pays off.
        q_subset = self._quantizer.quantize_list(subset_values)
        try:
            outcome = self._encoding.embed(q_subset, local - start, label, bit)
        except EncodingSearchExhausted:
            self.report.search_failures += 1
            return pre_reference
        report = self.report
        report.total_search_iterations += outcome.iterations

        changed = [offset for offset, (old_q, new_q)
                   in enumerate(zip(q_subset, outcome.q_values))
                   if old_q != new_q]
        if not changed:
            report.embedded += 1
            return pre_reference
        dequantize = self._quantizer.dequantize
        if self._monitor is not None:
            alterations = [Alteration(index=extreme.subset_start + offset,
                                      old=subset_values[offset],
                                      new=dequantize(outcome.q_values[offset]))
                           for offset in changed]
            if not self._monitor.propose(alterations):
                report.quality_rollbacks += 1
                return pre_reference
            rewrites = [(a.index - extreme.subset_start, a.new)
                        for a in alterations]
        else:
            rewrites = [(offset, dequantize(outcome.q_values[offset]))
                        for offset in changed]
        for offset, new_value in rewrites:
            # `subset` is a live view into the window buffer, so this is
            # window.replace() at offset start+offset without per-item
            # bounds rechecks (the slice already established them).
            subset[offset] = new_value
            change = abs(new_value - subset_values[offset])
            report.sum_abs_alteration += change
            if change > report.max_abs_alteration:
                report.max_abs_alteration = change
        report.altered_items += len(rewrites)
        report.embedded += 1
        # Re-derive the reference from the committed (post-encoding)
        # window state: this is exactly what the detector will compute.
        post_window = self._window.values()
        return self._reference_value(extreme, post_window, start, end)


def watermark_stream(values, watermark, key,
                     params: "WatermarkParams | None" = None,
                     encoding="multihash",
                     monitor: "QualityMonitor | None" = None,
                     require_labels: bool = True,
                     encoding_options: "dict | None" = None,
                     chunk_size: int = 4096
                     ) -> tuple[np.ndarray, EmbedReport]:
    """Watermark an in-memory normalized stream (offline convenience).

    Returns ``(marked_values, report)``; the output has exactly the input
    length and differs from it only in the low ``alpha`` bits of items
    inside selected characteristic subsets.
    """
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size == 0:
        raise ParameterError("cannot watermark an empty stream")
    embedder = StreamWatermarker(watermark, key, params=params,
                                 encoding=encoding, monitor=monitor,
                                 require_labels=require_labels,
                                 encoding_options=encoding_options)
    marked = embedder.run(array, chunk_size=chunk_size)
    if marked.size != array.size:
        raise ParameterError(
            f"internal error: output size {marked.size} != input {array.size}"
        )
    return marked, embedder.report

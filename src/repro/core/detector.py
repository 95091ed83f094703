"""Watermark detection with majority-voting buckets (paper Fig 4).

Detection mirrors the embedding scan: the same window discipline, the
same extreme/label/selection machinery.  For every selected extreme the
encoding strategy produces a :class:`Vote` (true-pattern hits vs
false-pattern hits over the recovered subset); votes accumulate in the
per-bit buckets ``wm[i]^T`` / ``wm[i]^F``, and ``wm_construct``
(:meth:`DetectionResult.wm_estimate`) decides each bit by bucket
difference against the threshold κ — bits whose difference stays within
κ remain *undefined*, which is exactly how un-watermarked data presents.

The detector accepts a known transform degree ρ (stream-rate ratio,
Sec 4.2), or an externally estimated one via
:func:`repro.core.degree.estimate_degree`; majorness is tested at the
adjusted degree σ/ρ.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.confidence import confidence_from_bias, exact_bias_fp
from repro.core.degree import adjusted_sigma, estimate_degree
from repro.core.encoding_factory import build_encoding
from repro.core.extremes import Extreme
from repro.core.params import WatermarkParams
from repro.core.quantize import Quantizer
from repro.core.scanner import ScanCounters, StreamScanner
from repro.core.selection import selection_message
from repro.core.watermark import to_bits
from repro.errors import DetectionError, ParameterError
from repro.util.hashing import KeyedHasher


@dataclass
class DetectionResult:
    """Voting buckets plus derived verdicts for one detection run."""

    buckets_true: list[int]
    buckets_false: list[int]
    counters: ScanCounters
    abstentions: int
    vote_threshold: int

    # ------------------------------------------------------------------
    @property
    def wm_length(self) -> int:
        """Number of watermark bits being reconstructed."""
        return len(self.buckets_true)

    def bias(self, bit_index: int = 0) -> int:
        """``wm[i]^T - wm[i]^F`` — the figures' "detected watermark bias"."""
        self._check_index(bit_index)
        return self.buckets_true[bit_index] - self.buckets_false[bit_index]

    @property
    def total_bias(self) -> int:
        """Net votes toward the embedded payload across all bits.

        For bit i, "toward the payload" cannot be known without the
        payload; this sums |T - F| signed by the majority, which equals
        bias for the common one-bit case and is reported by the
        resilience experiments.
        """
        return sum(abs(t - f) for t, f in zip(self.buckets_true,
                                              self.buckets_false))

    def votes(self, bit_index: int = 0) -> int:
        """Total votes cast for one bit (``T + F``)."""
        self._check_index(bit_index)
        return self.buckets_true[bit_index] + self.buckets_false[bit_index]

    def wm_estimate(self, threshold: "int | None" = None
                    ) -> "list[bool | None]":
        """Per-bit decision: True / False / None (undefined), Fig 4's
        ``wm_construct`` with threshold κ."""
        kappa = self.vote_threshold if threshold is None else threshold
        if kappa < 0:
            raise ParameterError(f"threshold must be >= 0, got {kappa}")
        estimate: "list[bool | None]" = []
        for t, f in zip(self.buckets_true, self.buckets_false):
            if t - f > kappa:
                estimate.append(True)
            elif f - t > kappa:
                estimate.append(False)
            else:
                estimate.append(None)
        return estimate

    def confidence(self, bit_index: int = 0) -> float:
        """Footnote-5 confidence ``1 - 2^-bias`` for one bit."""
        return confidence_from_bias(self.bias(bit_index))

    def exact_false_positive(self, bit_index: int = 0) -> float:
        """Exact binomial tail for this bit's bias under the null.

        Valid only under a fair-coin null: every vote of a wrong key an
        independent ±1 with probability 1/2.  Wrong keys screened
        against ``initial``-marked suspects break it (their votes lean
        false); see :func:`repro.core.confidence.exact_bias_fp`.
        """
        return exact_bias_fp(self.votes(bit_index), self.bias(bit_index))

    def match_fraction(self, watermark) -> float:
        """Fraction of *decided* bits matching an expected payload.

        Undefined bits are excluded from the denominator; returns 0.0
        when no bit was decided.
        """
        expected = to_bits(watermark)
        if len(expected) != self.wm_length:
            raise DetectionError(
                f"expected payload has {len(expected)} bits, detector ran "
                f"with {self.wm_length}"
            )
        decided = [(est, exp) for est, exp in zip(self.wm_estimate(), expected)
                   if est is not None]
        if not decided:
            return 0.0
        return sum(est == exp for est, exp in decided) / len(decided)

    def _check_index(self, bit_index: int) -> None:
        if not 0 <= bit_index < self.wm_length:
            raise ParameterError(
                f"bit index {bit_index} outside watermark of {self.wm_length}"
            )


@dataclass(eq=False)
class _Voter:
    """One key's share of a detection scan.

    The key enters the detector only through the selection hash and the
    encoding convention (paper Fig 4), so each key carries its own
    hasher, encoding strategy, vote buckets, abstentions and count of
    the extremes it selected; everything else belongs to the scan.
    """

    hasher: KeyedHasher
    encoding: object
    buckets_true: list[int]
    buckets_false: list[int]
    abstentions: int = 0
    selected: int = 0


class StreamDetector(StreamScanner):
    """Streaming detector: feed (possibly transformed) chunks, read votes.

    Parameters
    ----------
    wm_length:
        Number of payload bits to reconstruct (or pass the expected
        payload itself — its length is used).
    key, params, encoding:
        Must match the embedding configuration (they are the secret).
        ``key`` may also be a list or tuple of keys: the detector then
        scans once and votes for every key (:meth:`results`).
    transform_degree:
        Known or estimated ρ; majorness runs at σ/ρ (Sec 4.2).

    The window, the extremes, their reference values, labels and
    characteristic subsets depend on the data alone, so one scan serves
    any number of keys: per major extreme each key (a *voter*) runs its
    own selection hash and, when selected, its own vote.  The selection
    message is framed once per extreme.  Multi-hash detection splits
    into a key-free evidence pass (the distinct sub-range average
    payloads of the subset) run once for all voters that selected the
    extreme, and a keyed vote per voter.  A single-key detector is the
    one-voter case.

    The scan and the votes can also run apart: :meth:`record` scans
    without voting and returns what the votes need, and
    :meth:`vote_record` casts the votes of any slice of that record, in
    any detector built with the same configuration.
    """

    def __init__(self, wm_length, key,
                 params: "WatermarkParams | None" = None,
                 encoding="multihash", transform_degree: float = 1.0,
                 require_labels: bool = True,
                 encoding_options: "dict | None" = None) -> None:
        if not isinstance(wm_length, int):
            wm_length = len(to_bits(wm_length))
        if wm_length < 1:
            raise ParameterError(f"wm_length must be >= 1, got {wm_length}")
        params = params or WatermarkParams()
        if transform_degree < 1.0:
            raise ParameterError(
                f"transform_degree must be >= 1, got {transform_degree}"
            )
        keys = list(key) if isinstance(key, (list, tuple)) else [key]
        if not keys:
            raise ParameterError("detection needs at least one key")
        hashers = [k if isinstance(k, KeyedHasher) else KeyedHasher(k)
                   for k in keys]
        quantizer = Quantizer(params.value_bits, params.avg_extra_bits)
        super().__init__(params, quantizer, hashers[0], wm_length,
                         effective_sigma=adjusted_sigma(params.sigma,
                                                        transform_degree),
                         require_labels=require_labels)
        self._voters = [
            _Voter(hasher, build_encoding(encoding, params, quantizer, hasher,
                                          **(encoding_options or {})),
                   [0] * wm_length, [0] * wm_length)
            for hasher in hashers]
        # Several voters share one evidence pass per selected extreme;
        # a lone voter calls its encoding's own detect.
        self._evidence = (
            getattr(self._voters[0].encoding, "evidence", None)
            if len(self._voters) > 1 else None)
        # The entries of a running record() scan, which then casts no
        # votes; None otherwise.
        self._recording: "list | None" = None

    @property
    def wm_length(self) -> int:
        """Number of payload bits this detector reconstructs."""
        return self._wm_length

    def _handle_major(self, extreme: Extreme, window_values: np.ndarray,
                      local: int, start: int, end: int) -> None:
        """Label one major extreme once, then let every voter vote on it
        (or, inside :meth:`record`, record it)."""
        reference = self._reference_value(extreme, window_values, start, end)
        # Detection never alters the extreme, so the value committed to
        # the label chain is the reference itself, and push returns the
        # label preview would have given it.
        label = self._labeler.push(reference)
        if label is None:
            if self._require_labels:
                self.counters.warmup_skips += 1
                return
            label = 1
        message = selection_message(reference, self._params,
                                    self._quantizer, label)
        # A view of the contiguous window: encodings only read it.
        subset = window_values[start:end + 1]
        if self._recording is None:
            self._vote(message, subset, local - start, label)
        else:
            self._recording.append((message, subset.tobytes(),
                                    local - start, label))

    def record(self, values) -> list:
        """Scan ``values`` without voting; return what the votes need.

        One entry per labelled major extreme, in stream order: the
        framed selection message, the characteristic subset as float64
        bytes, the extreme's offset in that subset, and its label.  The
        scan counters advance as :meth:`run` advances them; no voter
        selects anything.  None of it depends on the key.
        """
        self._recording = []
        try:
            self.run(values)
            return self._recording
        finally:
            self._recording = None

    def vote_record(self, entries) -> None:
        """Cast every voter's votes on entries of a :meth:`record`.

        Any detector with the configuration of the recording one may
        vote any slice of its record.  Buckets, abstentions and
        ``selected`` are sums over the entries, so the slices voted
        apart add up to the votes of one :meth:`run` (the merge law of
        :mod:`repro.core.parallel_detect`).
        """
        frombuffer = np.frombuffer
        for message, subset, offset, label in entries:
            self._vote(message, frombuffer(subset), offset, label)

    def _vote(self, message: bytes, subset: np.ndarray, offset: int,
              label: int) -> None:
        """Every voter's selection hash on one labelled major extreme,
        and the vote of each voter that selects it."""
        phi = self._params.phi
        wm_length = self._wm_length
        counters = self.counters
        shared = self._evidence
        evidence = None
        for voter in self._voters:
            bit_index = voter.hasher.hash_framed(message) % phi
            if bit_index >= wm_length:
                continue
            voter.selected += 1
            counters.selected += 1
            if shared is None:
                vote = voter.encoding.detect(subset, offset, label)
            else:
                if evidence is None:
                    evidence = shared(subset, offset, label)
                vote = voter.encoding.vote(evidence)
            decision = vote.decision
            if decision is True:
                voter.buckets_true[bit_index] += 1
            elif decision is False:
                voter.buckets_false[bit_index] += 1
            else:
                voter.abstentions += 1

    def results(self) -> "list[DetectionResult]":
        """Snapshot of every key's evidence, in key order.

        The scan counters are shared; ``selected`` is each key's own.
        """
        return [self._result(voter) for voter in self._voters]

    def result(self) -> DetectionResult:
        """Snapshot of the evidence accumulated so far (single key)."""
        return self._result(self._single_voter())

    def _result(self, voter: _Voter) -> DetectionResult:
        return DetectionResult(
            buckets_true=list(voter.buckets_true),
            buckets_false=list(voter.buckets_false),
            counters=dataclasses.replace(self.counters,
                                         selected=voter.selected),
            abstentions=voter.abstentions,
            vote_threshold=self._params.vote_threshold)

    def encoding_stats(self) -> dict:
        """Lifetime telemetry from the encoding strategy, if it keeps any.

        The same pull-based observability hook the embedder exposes.
        Detection never embeds, and multi-hash detection does not
        probe the pattern memo, so its ``embeds``,
        ``search_iterations``, ``pattern_probes`` and
        ``pattern_memo_hits`` stay 0.
        """
        encoding = self._single_voter().encoding
        snapshot = getattr(encoding, "stats_snapshot", None)
        return snapshot() if snapshot is not None else {}

    def _single_voter(self) -> _Voter:
        if len(self._voters) != 1:
            raise ParameterError(
                f"this detector votes for {len(self._voters)} keys; "
                "read them with results()"
            )
        return self._voters[0]

    # ------------------------------------------------------------------
    # checkpoint / resume (single-key detectors)
    # ------------------------------------------------------------------
    def restore_scan_state(self, state: dict) -> None:
        """Load a :meth:`scan_state` snapshot; ``selected`` is the key's."""
        voter = self._single_voter()
        super().restore_scan_state(state)
        voter.selected = self.counters.selected

    def vote_state(self) -> dict:
        """JSON-compatible snapshot of the voting buckets."""
        voter = self._single_voter()
        return {
            "buckets_true": list(voter.buckets_true),
            "buckets_false": list(voter.buckets_false),
            "abstentions": voter.abstentions,
        }

    def restore_vote_state(self, state: dict) -> None:
        """Load a :meth:`vote_state` snapshot into this detector."""
        voter = self._single_voter()
        buckets_true = [int(x) for x in state["buckets_true"]]
        buckets_false = [int(x) for x in state["buckets_false"]]
        if len(buckets_true) != self._wm_length \
                or len(buckets_false) != self._wm_length:
            raise ParameterError(
                f"checkpoint holds {len(buckets_true)} vote buckets, "
                f"detector was built for {self._wm_length} bits"
            )
        voter.buckets_true = buckets_true
        voter.buckets_false = buckets_false
        voter.abstentions = int(state["abstentions"])


def detect_best(values, wm_length, key,
                params: "WatermarkParams | None" = None,
                encoding="multihash",
                candidate_degrees: "list[float] | None" = None,
                reference_subset_size: "float | None" = None,
                expected=None,
                require_labels: bool = True,
                encoding_options: "dict | None" = None,
                workers: "int | None" = None
                ) -> tuple[DetectionResult, float]:
    """Multi-pass offline detection over candidate transform degrees.

    The paper lists "handling ability of offline multi-pass detection"
    among its improvements: when the transform applied by Mallory is
    unknown, the detector can afford several passes, one per candidate
    ρ, and keep the most decisive evidence.  By default the candidates
    are ρ = 1 (value-only attacks preserve the rate) plus the Sec-4.2
    subset-shrinkage estimate when a reference statistic is available.
    Candidate degrees are deduplicated at the same 0.25 tolerance the
    shrinkage estimate uses, so a caller-supplied list cannot enqueue a
    near-identical (and equally expensive) pass twice.

    ``expected`` (the payload the rights owner embedded, when known)
    scores each pass by the *signed* vote margin toward that payload;
    without it the unsigned total bias is used.  Each pass is scored
    exactly once; ties keep the earliest candidate (the scan is
    deterministic, so "strictly better replaces" and "first wins ties"
    together make the outcome order-stable).

    ``workers`` > 1 fans the passes across the caller and a process
    pool (they are independent scans of the same values); the winner is
    identical to the serial sweep because all results come back in
    candidate order.  A negative ``workers`` raises
    :class:`ParameterError`.

    Returns ``(best_result, best_degree)``.  Note the multiple-
    comparisons caveat: testing k hypotheses scales the false-positive
    probability by at most k (Bonferroni), which is immaterial against
    the scheme's exponentially small Pfp values.
    """
    from repro.core.parallel_detect import _check_workers

    _check_workers(workers)
    params = params or WatermarkParams()
    degrees: list[float] = []
    for degree in (candidate_degrees or [1.0]):
        if all(abs(float(degree) - d) > 0.25 for d in degrees):
            degrees.append(float(degree))
    if reference_subset_size is not None:
        estimated = estimate_degree(reference_subset_size, values,
                                    params.prominence, params.delta)
        if all(abs(estimated - d) > 0.25 for d in degrees):
            degrees.append(estimated)
    expected_bits = to_bits(expected) if expected is not None else None

    def score(result: DetectionResult) -> int:
        if expected_bits is None:
            return result.total_bias
        return sum((t - f) if bit else (f - t)
                   for t, f, bit in zip(result.buckets_true,
                                        result.buckets_false,
                                        expected_bits))

    if workers is not None and workers > 1 and len(degrees) > 1:
        from repro.core.parallel_detect import DetectionTask, run_tasks

        tasks = [DetectionTask(values=values, wm_length=wm_length, key=key,
                               params=params, encoding=encoding,
                               transform_degree=degree,
                               require_labels=require_labels,
                               encoding_options=encoding_options)
                 for degree in degrees]
        results = run_tasks(tasks, workers=workers)
    else:
        results = [detect_watermark(values, wm_length, key, params=params,
                                    encoding=encoding,
                                    transform_degree=degree,
                                    require_labels=require_labels,
                                    encoding_options=encoding_options)
                   for degree in degrees]

    best: "DetectionResult | None" = None
    best_score = 0
    best_degree = degrees[0]
    for degree, result in zip(degrees, results):
        result_score = score(result)
        if best is None or result_score > best_score:
            best = result
            best_score = result_score
            best_degree = degree
    assert best is not None  # degrees is never empty
    return best, best_degree


def detect_watermark(values, wm_length, key,
                     params: "WatermarkParams | None" = None,
                     encoding="multihash",
                     transform_degree: "float | str" = 1.0,
                     reference_subset_size: "float | None" = None,
                     require_labels: bool = True,
                     encoding_options: "dict | None" = None,
                     chunk_size: int = 4096,
                     workers: "int | None" = None,
                     spans: "int | None" = None) -> DetectionResult:
    """Offline detection over an in-memory (possibly transformed) stream.

    ``transform_degree="auto"`` estimates ρ from characteristic-subset
    shrinkage (Sec 4.2) and requires ``reference_subset_size`` — the
    ``average_subset_size`` recorded in the :class:`EmbedReport`.

    ``workers`` > 1 cuts the stream into contiguous spans (``spans``,
    default one per worker), scans them in the caller and a process
    pool and merges the vote buckets exactly (they are additive — see
    :mod:`repro.core.parallel_detect` for the merge law and the
    span-boundary warmup caveat).  ``workers`` None, 0 or 1 is serial;
    a negative ``workers`` or a ``spans`` below 1 raises
    :class:`ParameterError`.
    """
    from repro.core.parallel_detect import _check_workers

    _check_workers(workers)
    if spans is not None and spans < 1:
        raise ParameterError(f"spans must be >= 1, got {spans}")
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size == 0:
        raise ParameterError("cannot detect in an empty stream")
    params = params or WatermarkParams()
    if transform_degree == "auto":
        if reference_subset_size is None:
            raise ParameterError(
                "transform_degree='auto' requires reference_subset_size "
                "(the EmbedReport's average_subset_size)"
            )
        rho = estimate_degree(reference_subset_size, array,
                              params.prominence, params.delta)
    else:
        rho = float(transform_degree)
    if (workers is not None and workers > 1) or \
            (spans is not None and spans > 1):
        from repro.core.parallel_detect import detect_watermark_spans

        return detect_watermark_spans(
            array, wm_length, key, params=params, encoding=encoding,
            transform_degree=rho, require_labels=require_labels,
            encoding_options=encoding_options,
            spans=spans if spans is not None else (workers or 1),
            workers=workers)
    detector = StreamDetector(wm_length, key, params=params,
                              encoding=encoding, transform_degree=rho,
                              require_labels=require_labels,
                              encoding_options=encoding_options)
    detector.run(array, chunk_size=chunk_size)
    return detector.result()

"""Unit tests for process-pool batch detection and the bucket merge law.

The merge law under test: voting buckets, abstentions and scan counters
are plain sums over disjoint evidence, so merging partial results is
exact — serial equals parallel for *every* workers/spans split.  The
pool itself is exercised sparingly (forks are slow on CI); most splits
run the serial path of :func:`run_tasks`, which is the same code the
pool workers execute.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import detector as detector_module
from repro.core import parallel_detect
from repro.core.detector import DetectionResult, detect_best, detect_watermark
from repro.core.embedder import watermark_stream
from repro.core.parallel_detect import (
    DetectionTask,
    detect_watermark_spans,
    merge_results,
    run_task,
    run_tasks,
    split_spans,
)
from repro.core.params import WatermarkParams
from repro.core.scanner import ScanCounters
from repro.errors import ParameterError
from repro.hub import StreamHub
from repro.streams.generators import TemperatureSensorGenerator
from repro.transforms import uniform_random_sampling

KEY = b"parallel-test-key"

#: Small window so a 6000-item stream splits into several legal spans
#: (split_spans refuses spans under 8 windows).
PARAMS = WatermarkParams(window_size=64)


@pytest.fixture(scope="module")
def marked() -> np.ndarray:
    data = TemperatureSensorGenerator(eta=60, seed=31).generate(6000)
    values, _ = watermark_stream(np.array(data), "1", KEY, params=PARAMS)
    return values


# ----------------------------------------------------------------------
# split_spans
# ----------------------------------------------------------------------

class TestSplitSpans:

    def test_contiguous_cover(self):
        for n_items, n_spans in [(10, 1), (10, 3), (100, 7), (5, 5)]:
            spans = split_spans(n_items, n_spans)
            assert spans[0][0] == 0
            assert spans[-1][1] == n_items
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end == start

    def test_deterministic_and_balanced(self):
        assert split_spans(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert split_spans(10, 3) == split_spans(10, 3)

    def test_min_span_reduces_count_not_length(self):
        spans = split_spans(1000, 8, min_span=300)
        assert len(spans) == 3
        assert all(end - start >= 300 for start, end in spans)

    def test_degenerates_to_one_span(self):
        assert split_spans(100, 4, min_span=1000) == [(0, 100)]

    def test_validation(self):
        with pytest.raises(ParameterError):
            split_spans(0, 1)
        with pytest.raises(ParameterError):
            split_spans(10, 0)
        with pytest.raises(ParameterError):
            split_spans(10, 2, min_span=0)


# ----------------------------------------------------------------------
# merge law
# ----------------------------------------------------------------------

class TestMergeLaw:

    def _tasks(self, marked, n_spans):
        ranges = split_spans(len(marked), n_spans,
                             min_span=8 * PARAMS.window_size)
        return [DetectionTask(values=marked[start:end], wm_length=1,
                              key=KEY, params=PARAMS)
                for start, end in ranges]

    def test_serial_equals_parallel_for_every_split(self, marked):
        """The tentpole property: any split merges to the same result."""
        whole = [run_task(self._tasks(marked, 1)[0])]
        reference = merge_results(whole)
        for n_spans in (2, 3, 5, 8):
            tasks = self._tasks(marked, n_spans)
            parts = run_tasks(tasks, workers=None)
            merged = merge_results(parts)
            # Bucket sums across the split equal the part-wise sums.
            assert merged.buckets_true == [
                sum(p.buckets_true[0] for p in parts)]
            assert merged.buckets_false == [
                sum(p.buckets_false[0] for p in parts)]
            assert merged.abstentions == sum(p.abstentions for p in parts)
            assert merged.counters.items == reference.counters.items
            assert merged.vote_threshold == reference.vote_threshold

    def test_pool_matches_serial(self, marked):
        tasks = self._tasks(marked, 3)
        serial = run_tasks(tasks, workers=None)
        pooled = run_tasks(tasks, workers=2)
        assert len(serial) == len(pooled)
        for a, b in zip(serial, pooled):
            assert a == b
        assert merge_results(serial) == merge_results(pooled)

    def test_counter_sum_covers_every_field(self, marked):
        parts = run_tasks(self._tasks(marked, 3), workers=None)
        merged = merge_results(parts)
        import dataclasses
        for field in dataclasses.fields(ScanCounters):
            assert getattr(merged.counters, field.name) == sum(
                getattr(p.counters, field.name) for p in parts)

    def test_merge_validation(self):
        counters = ScanCounters()
        one_bit = DetectionResult(buckets_true=[1], buckets_false=[0],
                                  counters=counters, abstentions=0,
                                  vote_threshold=0)
        two_bit = DetectionResult(buckets_true=[1, 0],
                                  buckets_false=[0, 1],
                                  counters=counters, abstentions=0,
                                  vote_threshold=0)
        other_threshold = DetectionResult(buckets_true=[1],
                                          buckets_false=[0],
                                          counters=counters, abstentions=0,
                                          vote_threshold=2)
        with pytest.raises(ParameterError):
            merge_results([])
        with pytest.raises(ParameterError):
            merge_results([one_bit, two_bit])
        with pytest.raises(ParameterError):
            merge_results([one_bit, other_threshold])

    def test_empty_task_rejected(self):
        with pytest.raises(ParameterError):
            DetectionTask(values=np.array([]), wm_length=1, key=KEY)

    def test_negative_workers_rejected(self, marked):
        with pytest.raises(ParameterError):
            run_tasks(self._tasks(marked, 1), workers=-1)


# ----------------------------------------------------------------------
# processes: how many a sweep starts, and that none outlives it
# ----------------------------------------------------------------------

@pytest.fixture()
def started(monkeypatch) -> list:
    """Every multiprocessing process started while the test runs."""
    processes: list = []
    start = multiprocessing.process.BaseProcess.start

    def recording_start(process):
        processes.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        recording_start)
    return processes


class TestProcessBound:

    RING = (KEY, b"ring-b", b"ring-c", b"ring-d")

    def _ring(self, marked):
        return [DetectionTask(values=marked, wm_length=1, key=key,
                              params=PARAMS) for key in self.RING]

    def test_plan_caps_parts_at_ring_size(self, marked, started):
        plans = parallel_detect._plan(self._ring(marked), workers=10_000)
        assert [len(plan.calls) for plan in plans] == [len(self.RING)]
        assert started == []

    def test_pooled_sweep_starts_one_process(self, marked, started):
        ring = self._ring(marked)
        assert run_tasks(ring, workers=2) == [run_task(t) for t in ring]
        assert len(started) == 1
        assert not any(process.is_alive() for process in started)
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# the detect_watermark / detect_best surfaces
# ----------------------------------------------------------------------

class TestDetectorSurface:

    def test_spans_mode_equals_manual_merge(self, marked):
        via_api = detect_watermark(marked, 1, KEY, params=PARAMS, spans=3)
        ranges = split_spans(len(marked), 3,
                             min_span=8 * PARAMS.window_size)
        manual = merge_results(
            [detect_watermark(marked[a:b], 1, KEY, params=PARAMS)
             for a, b in ranges])
        assert via_api == manual

    def test_detect_best_workers_matches_serial(self, marked):
        degrees = [1.0, 3.0]
        serial_best, serial_degree = detect_best(
            marked, 1, KEY, params=PARAMS, candidate_degrees=degrees)
        pooled_best, pooled_degree = detect_best(
            marked, 1, KEY, params=PARAMS, candidate_degrees=degrees,
            workers=2)
        assert pooled_degree == serial_degree
        assert pooled_best == serial_best

    @pytest.mark.parametrize("kwargs", [{"workers": -2}, {"spans": -3},
                                        {"spans": 0}],
                             ids=["workers=-2", "spans=-3", "spans=0"])
    def test_detect_watermark_rejects_bad_counts(self, marked, kwargs):
        with pytest.raises(ParameterError, match=next(iter(kwargs))):
            detect_watermark(marked, 1, KEY, params=PARAMS, **kwargs)

    def test_detect_best_rejects_negative_workers(self, marked):
        with pytest.raises(ParameterError, match="workers"):
            detect_best(marked, 1, KEY, params=PARAMS,
                        candidate_degrees=[1.0, 3.0], workers=-1)

    def test_detect_best_dedupes_near_degrees(self, marked,
                                              monkeypatch):
        calls: "list[float]" = []
        original = detector_module.detect_watermark

        def counting(values, wm_length, key, **kwargs):
            calls.append(kwargs["transform_degree"])
            return original(values, wm_length, key, **kwargs)

        monkeypatch.setattr(detector_module, "detect_watermark", counting)
        detect_best(marked[:1500], 1, KEY, params=PARAMS,
                    candidate_degrees=[1.0, 1.2, 0.9, 3.0])
        # 1.2 and 0.9 sit within the 0.25 dedupe tolerance of 1.0:
        # only two passes actually run.
        assert calls == [1.0, 3.0]


# ----------------------------------------------------------------------
# hub batch screening
# ----------------------------------------------------------------------

class TestHubBatch:

    def test_detect_batch_order_and_keys(self, marked):
        wrong_key = b"not-the-embedding-key"
        jobs = [
            (marked, 1, KEY, {"params": PARAMS}),
            (marked, 1, wrong_key, {"params": PARAMS}),
        ]
        results = StreamHub.detect_batch(jobs)
        assert len(results) == 2
        right, wrong = results
        assert right.total_bias > wrong.total_bias
        assert right.total_bias > 0

    @pytest.mark.parametrize("encoding", ["multihash", "quadres"])
    def test_infinite_items_do_not_kill_a_ring_sweep(self, marked,
                                                     encoding):
        """At σ/ρ a lone ±inf pivot is a major extreme: its label,
        selection and vote must saturate like any out-of-range value,
        not raise for every key of the sweep.  So must +inf beside
        -inf: a characteristic subset never holds an infinity beside
        another item (``|inf - x|`` is never below δ), so the NaN
        average such a pair would make, which abstains, is pinned on
        the encoding itself (``test_nan_average_abstains``)."""
        suspect = uniform_random_sampling(marked, 2, rng=31)
        ring = [KEY, b"ring-b", b"ring-c"]
        options = {"params": PARAMS, "transform_degree": 2,
                   "encoding": encoding}
        at = len(suspect) // 3
        inf = float("inf")
        for items in ([inf], [-inf], [inf, -inf]):
            poisoned = suspect.copy()
            poisoned[at:at + len(items)] = items
            finite = suspect.copy()
            finite[at:at + len(items)] = [1e300 if item > 0 else -1e300
                                          for item in items]
            got = StreamHub.detect_batch(
                [(poisoned, 1, key, options) for key in ring])
            want = StreamHub.detect_batch(
                [(finite, 1, key, options) for key in ring])
            assert got == want
            if encoding == "multihash":  # the encoding that marked it
                assert got[0].bias(0) > 0

    def test_detect_batch_accepts_tasks(self, marked):
        task = DetectionTask(values=marked, wm_length=1, key=KEY,
                             params=PARAMS)
        direct = run_tasks([task])
        via_hub = StreamHub.detect_batch([task])
        assert direct == via_hub

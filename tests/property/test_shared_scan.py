"""Property tests: key-ring batches share scans without changing a bit.

``run_tasks`` scans a suspect once for every task that differs from
another only in ``key``.  Each result must still equal, field for
field, what :func:`run_task` gives for its task alone: both buckets,
abstentions, the vote threshold and every :class:`ScanCounters` field
(``selected`` is per key, the rest belong to the shared scan).  Tasks
that differ in anything else — one stream item, or one other field —
must not share a scan.  With a pool, the caller runs the one scan and
the pool only votes slices of its record; that split must not change
a bit either, down to records of zero, one and two entries.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import watermark_stream
from repro.core import parallel_detect
from repro.core.detector import StreamDetector
from repro.core.params import WatermarkParams
from repro.core.parallel_detect import DetectionTask, run_task, run_tasks
from repro.errors import ParameterError
from repro.obs import MetricsRegistry
from repro.streams import TemperatureSensorGenerator
from repro.transforms import uniform_random_sampling

PARAMS = WatermarkParams(phi=4)
KEYS = (b"ring-a", b"ring-b", b"ring-c", b"ring-d")
#: (encoding, encoding_options) as a task names them.
ENCODINGS = (("multihash", None), ("multihash", {"method": "random"}),
             ("initial", None), ("quadres", None))


def _fields(result) -> dict:
    return {"buckets_true": result.buckets_true,
            "buckets_false": result.buckets_false,
            "abstentions": result.abstentions,
            "vote_threshold": result.vote_threshold,
            "counters": result.counters.to_dict()}


@pytest.fixture(scope="module")
def suspects() -> "list[np.ndarray]":
    """Streams marked "10" under ``ring-b``, plain and sampled by 2.

    Multihash detection does not depend on the search method, so the
    (slow to embed) random search marks no stream; tasks still name it.
    """
    out = []
    for seed, encoding in enumerate(("multihash", "initial", "quadres")):
        size = 3000 + 1500 * seed
        values = TemperatureSensorGenerator(eta=50, seed=seed).generate(size)
        marked, _ = watermark_stream(values, "10", KEYS[1], params=PARAMS,
                                     encoding=encoding)
        out.append(marked)
        out.append(uniform_random_sampling(marked, 2, rng=seed))
    return out


@st.composite
def batches(draw, n_suspects: int):
    """Interleaved tasks: a few suspect configurations x key rings."""
    configs = draw(st.lists(st.tuples(
        st.integers(0, n_suspects - 1),
        st.sampled_from(ENCODINGS),
        st.sampled_from((1.0, 2.0)),
        st.booleans(),
        st.integers(1, 3)), min_size=1, max_size=3))
    tasks = []
    for suspect, (encoding, options), degree, labels, bits in configs:
        ring = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=5))
        tasks.extend((suspect, key, encoding, options, degree, labels, bits)
                     for key in ring)
    return draw(st.permutations(tasks))


class TestSharedScanEqualsRunTask:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_detect_many_equals_run_task(self, suspects, data):
        specs = data.draw(batches(len(suspects)))
        workers = data.draw(st.sampled_from((None, 2)))
        tasks = [DetectionTask(values=suspects[suspect], wm_length=bits,
                               key=key, params=PARAMS, encoding=encoding,
                               transform_degree=degree,
                               require_labels=labels,
                               encoding_options=options)
                 for suspect, key, encoding, options, degree, labels, bits
                 in specs]
        expected = [_fields(run_task(task)) for task in tasks]
        got = [_fields(result)
               for result in run_tasks(tasks, workers=workers)]
        assert got == expected


def _scans(tasks, workers=None) -> int:
    registry = MetricsRegistry()
    results = run_tasks(tasks, workers=workers, metrics=registry)
    assert [_fields(r) for r in results] == \
        [_fields(run_task(t)) for t in tasks]
    return registry.snapshot()["counters"]["detect_scans_total"]


class TestScanSharingRule:
    @pytest.fixture()
    def base(self, suspects) -> DetectionTask:
        return DetectionTask(values=suspects[0], wm_length=2, key=KEYS[0],
                             params=PARAMS, transform_degree=1.0)

    def test_key_ring_shares_one_scan(self, base):
        ring = [dataclasses.replace(base, key=key)
                for key in KEYS + KEYS[:2]]
        assert _scans(ring) == 1

    def test_pooled_key_ring_scans_once(self, base):
        """With a pool the caller scans; the pool only votes."""
        ring = [dataclasses.replace(base, key=key)
                for key in KEYS + KEYS[:2]]
        assert _scans(ring, workers=2) == 1

    def test_copied_values_share(self, base):
        other = dataclasses.replace(base, key=KEYS[1],
                                    values=base.values.copy())
        assert _scans([base, other]) == 1

    def test_one_differing_item_does_not_share(self, base):
        values = base.values.copy()
        values[len(values) // 3] += 1e-9
        other = dataclasses.replace(base, key=KEYS[1], values=values)
        assert _scans([base, other]) == 2

    @pytest.mark.parametrize("field, value", [
        ("wm_length", 3),
        ("params", PARAMS.with_updates(vote_threshold=1)),
        ("encoding", "initial"),
        ("transform_degree", 1.5),
        ("require_labels", False),
        ("encoding_options", {"method": "random"}),
    ])
    def test_one_differing_field_does_not_share(self, base, field, value):
        other = dataclasses.replace(base, key=KEYS[1], **{field: value})
        assert _scans([base, other]) == 2


#: Index in ``suspects`` of the plain stream each encoding marked; the
#: one sampled by 2 follows it.
MARKED_BY = {"multihash": 0, "initial": 2, "quadres": 4}
#: Five keys, the marking key twice.
RING = KEYS + KEYS[1:2]


def _ring(values, encoding="multihash", options=None, degree=1.0):
    return [DetectionTask(values=values, wm_length=2, key=key,
                          params=PARAMS, encoding=encoding,
                          transform_degree=degree, encoding_options=options)
            for key in RING]


def _record_length(values) -> int:
    return len(StreamDetector(2, list(RING), params=PARAMS).record(values))


def _prefix(values, entries: int) -> np.ndarray:
    """The shortest 10-item multiple prefix whose scan records
    ``entries`` labelled major extremes."""
    for size in range(10, len(values), 10):
        if _record_length(values[:size]) == entries:
            return values[:size]
    raise AssertionError(f"no prefix records {entries} entries")


class TestSplitPath:
    """A ring the caller scans and a pool votes, slice by slice."""

    @pytest.mark.parametrize("workers", (2, 3))
    @pytest.mark.parametrize("degree", (1.0, 2.0))
    @pytest.mark.parametrize("encoding, options", ENCODINGS)
    def test_split_equals_run_task(self, suspects, encoding, options,
                                   degree, workers):
        values = suspects[MARKED_BY[encoding] + (degree > 1)]
        ring = _ring(values, encoding, options, degree)
        registry = MetricsRegistry()
        got = run_tasks(ring, workers=workers, metrics=registry)
        expected = [run_task(task) for task in ring]
        assert [_fields(r) for r in got] == [_fields(r) for r in expected]
        assert sum(r.votes(0) + r.votes(1) for r in got) > 0
        snap = registry.snapshot()
        assert snap["counters"]["detect_scans_total"] == 1
        assert snap["gauges"]["detect_pool_workers"] == workers - 1

    @pytest.mark.parametrize("entries", (0, 1, 2))
    def test_short_records(self, suspects, entries):
        """An empty record, one entry, and more parts than entries."""
        values = _prefix(suspects[0], entries)
        ring = _ring(values)
        expected = [_fields(run_task(task)) for task in ring]
        for workers in (2, 3):
            plans = parallel_detect._plan(ring, workers)
            assert [len(plan.calls) for plan in plans] == [entries]
            assert [_fields(r) for r in run_tasks(ring, workers=workers)] \
                == expected


class TestMultiKeyDetector:
    def test_results_in_key_order(self, suspects):
        detector = StreamDetector(2, list(KEYS), params=PARAMS)
        detector.run(suspects[0])
        expected = [_fields(run_task(DetectionTask(
            values=suspects[0], wm_length=2, key=key, params=PARAMS)))
            for key in KEYS]
        assert [_fields(r) for r in detector.results()] == expected

    def test_single_key_views_refuse_a_ring(self):
        detector = StreamDetector(1, [KEYS[0], KEYS[1]], params=PARAMS)
        for read in (detector.result, detector.vote_state,
                     detector.encoding_stats):
            with pytest.raises(ParameterError, match="results"):
                read()

    def test_empty_ring_rejected(self):
        with pytest.raises(ParameterError):
            StreamDetector(1, [], params=PARAMS)

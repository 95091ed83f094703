"""The observability registry: exact under threads, free when off.

The contracts ISSUE 9 names: counters hammered from many threads never
lose an increment, histogram bucket totals conserve the observation
count, a disabled registry costs a no-op method call and snapshots to
``{"enabled": False}``, and callback gauges are sampled only when a
snapshot is actually taken.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    LATENCY_MS_BUCKETS,
    LATENCY_US_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_monotonic_negative_inc_rejected(self):
        counter = Counter()
        with pytest.raises(ValueError, match="monotonic"):
            counter.inc(-1)
        assert counter.value == 0

    def test_zero_inc_allowed(self):
        counter = Counter()
        counter.inc(0)
        assert counter.value == 0


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == 12.0


class TestHistogram:
    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["p50"] is None
        assert snap["p99"] is None
        assert snap["mean"] is None
        assert snap["buckets"] == {}

    def test_exact_aggregates_ride_along(self):
        hist = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 555.5
        assert snap["min"] == 0.5
        assert snap["max"] == 500.0
        assert snap["mean"] == pytest.approx(138.875)

    def test_bucket_totals_conserve_count(self):
        hist = Histogram(buckets=LATENCY_US_BUCKETS)
        for i in range(1000):
            hist.observe(float(i * 7 % 2_000_000))
        snap = hist.snapshot()
        assert sum(snap["buckets"].values()) == snap["count"] == 1000

    def test_overflow_bucket_reported_as_inf(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(1e9)
        snap = hist.snapshot()
        assert snap["buckets"] == {"+Inf": 1}
        # Overflow has no upper bound: quantiles fall back to the max.
        assert snap["p99"] == 1e9

    def test_quantiles_interpolate_and_clamp(self):
        hist = Histogram(buckets=(10.0, 20.0))
        for _ in range(100):
            hist.observe(15.0)
        # All mass in (10, 20]; interpolation is clamped to the
        # observed extremes so a single-value stream reports itself.
        assert hist.quantile(0.5) == 15.0
        assert hist.quantile(0.99) == 15.0

    def test_quantile_ordering(self):
        hist = Histogram(buckets=LATENCY_MS_BUCKETS)
        for i in range(1, 1001):
            hist.observe(i / 100.0)  # 0.01 .. 10.0 ms
        snap = hist.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        assert snap["p50"] == pytest.approx(5.0, rel=0.2)

    def test_bad_bucket_bounds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram(buckets=(5.0, 1.0))
        with pytest.raises(ValueError, match="ascending"):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="ascending"):
            Histogram(buckets=())

    def test_snapshot_is_json_safe(self):
        hist = Histogram(buckets=(1.0, 2.5))
        hist.observe(0.2)
        hist.observe(9.9)
        json.dumps(hist.snapshot())


class TestThreadSafety:
    """CPython ``+=`` is not atomic; the instruments must be."""

    THREADS = 8
    ROUNDS = 2500

    def _hammer(self, work):
        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_is_exact_under_contention(self):
        registry = MetricsRegistry()
        def work():
            counter = registry.counter("hammered_total", worker="shared")
            for _ in range(self.ROUNDS):
                counter.inc()
        self._hammer(work)
        assert registry.counter("hammered_total", worker="shared").value \
            == self.THREADS * self.ROUNDS

    def test_histogram_conserves_under_contention(self):
        hist = Histogram(buckets=(1.0, 10.0, 100.0))
        def work():
            for i in range(self.ROUNDS):
                hist.observe(float(i % 200))
        self._hammer(work)
        snap = hist.snapshot()
        total = self.THREADS * self.ROUNDS
        assert snap["count"] == total
        assert sum(snap["buckets"].values()) == total

    def test_registry_factory_race_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        def work():
            for _ in range(200):
                seen.append(registry.counter("raced_total", t="x"))
        self._hammer(work)
        assert len({id(instrument) for instrument in seen}) == 1


class TestRegistry:
    def test_instruments_cached_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("pushes_total", tenant="acme")
        b = registry.counter("pushes_total", tenant="acme")
        c = registry.counter("pushes_total", tenant="other")
        assert a is b
        assert a is not c

    def test_label_order_does_not_split_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("frames_total", transport="tcp", wire="binary")
        b = registry.counter("frames_total", wire="binary", transport="tcp")
        assert a is b

    def test_snapshot_renders_sorted_labels(self):
        registry = MetricsRegistry()
        registry.counter("frames_total", wire="binary",
                         transport="tcp").inc(3)
        registry.gauge("depth").set(2.0)
        registry.histogram("push_us", labelled="yes").observe(1.0)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"][
            "frames_total{transport=tcp,wire=binary}"] == 3
        assert snap["gauges"]["depth"] == 2.0
        assert snap["histograms"]["push_us{labelled=yes}"]["count"] == 1

    def test_gauge_callback_sampled_at_snapshot_only(self):
        registry = MetricsRegistry()
        calls = []
        registry.gauge_callback("pool_utilization",
                                lambda: calls.append(1) or 0.75)
        assert calls == []  # registration does not sample
        assert registry.snapshot()["gauges"]["pool_utilization"] == 0.75
        assert len(calls) == 1

    def test_gauge_callback_replaced_and_failure_is_none(self):
        registry = MetricsRegistry()
        registry.gauge_callback("depth", lambda: 1)

        def dying():
            raise RuntimeError("sensor gone")

        registry.gauge_callback("depth", dying)  # replaces
        snap = registry.snapshot()
        assert snap["gauges"]["depth"] is None  # must not poison STATUS

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.histogram("lat_us").observe(3.0)
        registry.gauge_callback("g", lambda: 1.5)
        json.dumps(registry.snapshot())


class TestDisabledRegistry:
    def test_shared_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is registry.counter("b")
        assert registry.gauge("a") is registry.gauge("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_null_instruments_swallow_updates(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("a_total", tenant="t")
        counter.inc(100)
        assert counter.value == 0
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc()
        gauge.dec()
        assert gauge.value == 0.0
        hist = registry.histogram("h")
        hist.observe(1.0)
        assert hist.count == 0

    def test_disabled_snapshot_shape(self):
        registry = MetricsRegistry(enabled=False)
        registry.gauge_callback("never", lambda: 1 / 0)
        assert registry.snapshot() == {"enabled": False}

    def test_null_registry_singleton_is_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert NULL_REGISTRY.snapshot() == {"enabled": False}
        # Library defaults funnel here; it must stay inert even after
        # other tests have touched it.
        NULL_REGISTRY.counter("anything").inc()
        assert NULL_REGISTRY.snapshot() == {"enabled": False}


class TestPipelineWiring:
    """The registry threaded through real hot paths stays exact."""

    def test_hub_counts_match_ground_truth(self):
        import numpy as np

        from repro import StreamHub, WatermarkParams

        registry = MetricsRegistry()
        hub = StreamHub(metrics=registry, metrics_labels={"tenant": "t9"})
        hub.protect("obs", "1", b"obs-key", params=WatermarkParams(phi=5))
        values = np.linspace(10.0, 40.0, 600)
        out = [hub.push("obs", values[:300]), hub.push("obs", values[300:]),
               hub.finish("obs")]
        released = int(sum(piece.size for piece in out))
        snap = registry.snapshot()
        assert snap["counters"]["hub_pushes_total{tenant=t9}"] == 2
        assert snap["counters"]["hub_items_in_total{tenant=t9}"] == 600
        assert snap["counters"]["hub_items_out_total{tenant=t9}"] \
            == released == 600
        hist = snap["histograms"]["hub_push_us{tenant=t9}"]
        assert hist["count"] == 2
        assert sum(hist["buckets"].values()) == 2

    def test_parallel_detect_pool_counters_exact(self):
        import numpy as np

        from repro.core.embedder import watermark_stream
        from repro.core.params import WatermarkParams
        from repro.core.parallel_detect import (
            DetectionTask,
            merge_results,
            run_tasks,
            split_spans,
        )
        from repro.streams import TemperatureSensorGenerator

        params = WatermarkParams(window_size=64)
        data = np.linspace(10.0, 40.0, 6000)
        marked, _ = watermark_stream(data, "1", b"pool-key", params=params)
        tasks = [DetectionTask(values=marked[start:end], wm_length=1,
                               key=b"pool-key", params=params)
                 for start, end in split_spans(len(marked), 3)]
        registry = MetricsRegistry()
        results = run_tasks(tasks, workers=2, metrics=registry)
        assert len(results) == 3
        merge_results(results, metrics=registry)
        snap = registry.snapshot()
        # Parent-side counters are exact even though the work ran in a
        # process pool (children cannot share the registry).
        assert snap["counters"]["detect_tasks_total"] == 3
        assert snap["counters"]["detect_scans_total"] == 3
        assert snap["counters"]["detect_pool_tasks_total"] == 3
        assert snap["counters"]["detect_pool_batches_total"] == 1
        assert snap["counters"]["detect_span_merges_total"] == 1
        assert snap["counters"]["detect_merged_parts_total"] == 3
        # The caller runs two of the three scans; one pool process
        # runs the third.
        assert snap["gauges"]["detect_pool_workers"] == 1

        # A key ring on one suspect shares one scan, run by the caller.
        # The ramp has no extreme, so there is nothing to vote on and
        # no pool to start.
        ring = [DetectionTask(values=marked, wm_length=1, key=key,
                              params=params)
                for key in (b"pool-key", b"k2", b"k3", b"k4", b"k5")]
        registry = MetricsRegistry()
        run_tasks(ring, workers=2, metrics=registry)
        snap = registry.snapshot()
        assert snap["counters"]["detect_tasks_total"] == 5
        assert snap["counters"]["detect_scans_total"] == 1
        assert "detect_pool_batches_total" not in snap["counters"]
        assert "detect_pool_workers" not in snap["gauges"]

        # On a suspect with extremes the caller votes one half of the
        # record while one pool process votes the other.
        suspect, _ = watermark_stream(
            TemperatureSensorGenerator(eta=60, seed=5).generate(4000), "1",
            b"pool-key", params=params)
        voted = [DetectionTask(values=suspect, wm_length=1, key=task.key,
                               params=params) for task in ring]
        registry = MetricsRegistry()
        run_tasks(voted, workers=2, metrics=registry)
        snap = registry.snapshot()
        assert snap["counters"]["detect_tasks_total"] == 5
        assert snap["counters"]["detect_scans_total"] == 1
        assert snap["counters"]["detect_pool_tasks_total"] == 5
        assert snap["counters"]["detect_pool_batches_total"] == 1
        assert snap["gauges"]["detect_pool_workers"] == 1

        # Serial: one scan per suspect, whatever the ring size.
        registry = MetricsRegistry()
        run_tasks(ring + tasks, metrics=registry)
        snap = registry.snapshot()
        assert snap["counters"]["detect_tasks_total"] == 8
        assert snap["counters"]["detect_scans_total"] == 4
        assert "detect_pool_batches_total" not in snap["counters"]

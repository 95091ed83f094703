"""A process-local metrics registry: counters, gauges, histograms.

Design constraints (see ISSUE 9 / DESIGN.md "Observability"):

* **Dependency-free** — stdlib only, importable from every layer.
* **Thread-safe and exact** — instrument updates take a per-instrument
  lock, so counts hammered from many threads never lose an increment
  (CPython ``+=`` on an attribute is *not* atomic).
* **Near-zero cost when disabled** — a disabled registry hands out
  shared no-op instruments whose ``inc``/``set``/``observe`` are empty
  methods; hot paths can also branch on ``registry.enabled`` to skip
  timing calls entirely.
* **Pull-friendly** — besides pushed gauges there are *callback*
  gauges, sampled only at :meth:`MetricsRegistry.snapshot` time.  Hot
  loops keep plain integers; the registry reads them when somebody
  actually asks (the STATUS frame, ``--status-interval``).

Instruments are keyed by ``(name, sorted(labels))`` and cached, so
``registry.counter("hub_pushes_total", tenant="acme")`` is cheap to
call repeatedly and always returns the same object.
"""
from __future__ import annotations

import bisect
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "LATENCY_US_BUCKETS",
    "LATENCY_MS_BUCKETS",
]

# Geometric-ish upper bounds for latency histograms.  Values above the
# last bound land in the overflow bucket (reported as ``+Inf``).
LATENCY_US_BUCKETS = (
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0, 250_000.0, 500_000.0, 1_000_000.0,
)
LATENCY_MS_BUCKETS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render_key(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonic counter.  ``inc`` only; never goes down."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the count."""
        if amount < 0:
            raise ValueError("counters are monotonic; inc() amount must be >= 0")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Raise the value by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Lower the value by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with p50/p95/p99 snapshot quantiles.

    Buckets are cumulative-style upper bounds plus an implicit overflow
    bucket; exact ``count``/``sum``/``min``/``max`` ride along so means
    are precise even though quantiles are bucket-interpolated.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets=LATENCY_US_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be unique ascending bounds")
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def observe(self, value: float) -> None:
        """Record one sample into its bucket and the exact totals."""
        value = float(value)
        idx = bisect.bisect_left(self._bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> "float | None":
        """The bucket-interpolated ``q`` quantile; ``None`` when empty."""
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> "float | None":
        if self._count == 0:
            return None
        rank = q * self._count
        seen = 0.0
        for idx, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            lo = seen
            seen += bucket_count
            if seen < rank:
                continue
            if idx >= len(self._bounds):  # overflow bucket: no upper bound
                return self._max
            upper = self._bounds[idx]
            lower = self._bounds[idx - 1] if idx > 0 else 0.0
            # Linear interpolation inside the bucket, clamped to the
            # exact observed extremes so tiny samples stay sane.
            frac = (rank - lo) / bucket_count
            est = lower + frac * (upper - lower)
            if self._min is not None:
                est = max(est, self._min)
            if self._max is not None:
                est = min(est, self._max)
            return est
        return self._max

    def snapshot(self) -> dict:
        """Count, sum, min, max, mean, p50/p95/p99 and non-empty buckets."""
        with self._lock:
            out = {
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": self._min,
                "max": self._max,
                "mean": round(self._sum / self._count, 6) if self._count else None,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
                "buckets": {
                    ("+Inf" if i == len(self._bounds) else repr(self._bounds[i])): c
                    for i, c in enumerate(self._counts) if c
                },
            }
        for key in ("p50", "p95", "p99"):
            if out[key] is not None:
                out[key] = round(out[key], 6)
        return out


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # noqa: ARG002 - deliberate no-op
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Factory + catalog for named instruments.

    ``enabled=False`` turns every factory into a shared no-op
    instrument and :meth:`snapshot` into an empty dict — the hot-path
    cost of a disabled registry is one attribute load and a no-op
    method call (or nothing at all, if the caller branches on
    :attr:`enabled`).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: "dict[tuple, tuple[str, dict, Counter]]" = {}
        self._gauges: "dict[tuple, tuple[str, dict, Gauge]]" = {}
        self._histograms: "dict[tuple, tuple[str, dict, Histogram]]" = {}
        self._callbacks: "dict[tuple, tuple[str, dict, object]]" = {}

    # -- factories -----------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``name`` and ``labels``, created on first use."""
        if not self.enabled:
            return _NULL_COUNTER
        key = (name, _label_key(labels))
        with self._lock:
            entry = self._counters.get(key)
            if entry is None:
                entry = (name, labels, Counter())
                self._counters[key] = entry
        return entry[2]

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``name`` and ``labels``, created on first use."""
        if not self.enabled:
            return _NULL_GAUGE
        key = (name, _label_key(labels))
        with self._lock:
            entry = self._gauges.get(key)
            if entry is None:
                entry = (name, labels, Gauge())
                self._gauges[key] = entry
        return entry[2]

    def histogram(self, name: str, buckets=LATENCY_US_BUCKETS, **labels) -> Histogram:
        """The histogram for ``name`` and ``labels``, created on first use
        (``buckets`` applies only then)."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        key = (name, _label_key(labels))
        with self._lock:
            entry = self._histograms.get(key)
            if entry is None:
                entry = (name, labels, Histogram(buckets))
                self._histograms[key] = entry
        return entry[2]

    def gauge_callback(self, name: str, fn, **labels) -> None:
        """Register ``fn() -> number`` sampled only at snapshot time.

        The zero-hot-path-cost channel: loops keep plain local state
        and the registry pulls it when a snapshot is requested.
        Re-registering the same (name, labels) replaces the callback.
        """
        if not self.enabled:
            return
        key = (name, _label_key(labels))
        with self._lock:
            self._callbacks[key] = (name, labels, fn)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe view of every instrument (callbacks sampled now)."""
        if not self.enabled:
            return {"enabled": False}
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            callbacks = list(self._callbacks.values())
        out = {
            "enabled": True,
            "counters": {
                _render_key(name, labels): inst.value
                for name, labels, inst in counters
            },
            "gauges": {
                _render_key(name, labels): inst.value
                for name, labels, inst in gauges
            },
            "histograms": {
                _render_key(name, labels): inst.snapshot()
                for name, labels, inst in histograms
            },
        }
        for name, labels, fn in callbacks:
            try:
                value = fn()
            except Exception:  # a dying callback must not poison STATUS
                value = None
            out["gauges"][_render_key(name, labels)] = value
        return out


#: Shared disabled registry — the default wiring for library-level
#: objects (`StreamHub`, `run_tasks`) when no registry is passed in.
NULL_REGISTRY = MetricsRegistry(enabled=False)

"""Process-pool batch detection with exact vote-bucket merging.

Detection is embarrassingly parallel along three axes the offline
multi-pass story already exposes: candidate transform degrees ρ
(:func:`repro.core.detector.detect_best` tries several), candidate keys
(a rights holder screening a batch of suspect streams against its key
ring), and contiguous chunk ranges of one long stream.  Each axis
factors into independent :class:`DetectionTask` units; the voting
buckets ``wm[i]^T`` / ``wm[i]^F`` are plain sums over selected extremes,
so partial results merge *exactly* — :func:`merge_results` implements
the bucket merge law

    merged.buckets[i] = sum over parts of part.buckets[i]

and likewise for abstentions and every scan counter.  Serial equals
parallel for every split (property-tested).

Key-ring sweeps share scans.  The key enters detection only through the
selection hash and the encoding convention, so :func:`run_tasks` groups
tasks that differ in nothing but ``key`` (equal ``wm_length``,
``params``, ``encoding``, ``transform_degree``, ``require_labels`` and
``encoding_options``, element-wise equal ``values``) and scans each
suspect once for all of them with a multi-key
:class:`~repro.core.detector.StreamDetector`.  Each group is cut into
``min(len(group), ceil(workers / n_groups))`` contiguous key chunks, one
scan each, so a one-suspect sweep still fills every worker.  Every
result is field-for-field what :func:`run_task` gives for its task
(property-tested).  Span tasks and degree sweeps never group.

The one approximation lives in *where the split cuts*: span-parallel
detection of a single stream re-warms the scanner at each span boundary
(window fill, label history), so a handful of extremes near each cut
may be skipped relative to the single-pass scan.  The merge itself adds
no error; with spans much longer than the window the vote loss is a few
votes per cut, and :func:`split_spans` refuses to produce spans shorter
than a window multiple for exactly that reason.

Workers are processes, not threads — the hot loops are pure Python and
hold the GIL.  Scans are pickled as one task plus its chunk of keys;
:class:`~repro.util.hashing.KeyedHasher` carries a ``__reduce__`` for
this.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.params import WatermarkParams
from repro.core.scanner import ScanCounters
from repro.errors import ParameterError
from repro.obs import NULL_REGISTRY

# Late imports of detector internals happen inside functions: the
# detector module imports this one for its ``workers=`` conveniences,
# and Python's module machinery resolves the cycle only if neither side
# needs the other at import time.


@dataclass(frozen=True)
class DetectionTask:
    """One self-contained detection unit (picklable, order-preserving).

    ``values`` is the (possibly transformed) stream slice to scan;
    everything else mirrors the keyword surface of
    :func:`repro.core.detector.detect_watermark`.
    """

    values: "np.ndarray"
    wm_length: int
    key: "bytes | str"
    params: "WatermarkParams | None" = None
    encoding: str = "multihash"
    transform_degree: float = 1.0
    require_labels: bool = True
    encoding_options: "dict | None" = field(default=None, hash=False)

    def __post_init__(self) -> None:
        array = np.asarray(self.values, dtype=np.float64).ravel()
        if array.size == 0:
            raise ParameterError("cannot detect in an empty stream")
        object.__setattr__(self, "values", array)


def run_task(task: DetectionTask):
    """Execute one task in the current process; returns DetectionResult."""
    from repro.core.detector import detect_watermark

    return detect_watermark(task.values, task.wm_length, task.key,
                            params=task.params, encoding=task.encoding,
                            transform_degree=task.transform_degree,
                            require_labels=task.require_labels,
                            encoding_options=task.encoding_options)


def _shares_scan(a: DetectionTask, b: DetectionTask) -> bool:
    """True when the two tasks differ at most in ``key``."""
    return (a.wm_length == b.wm_length
            and a.encoding == b.encoding
            and a.transform_degree == b.transform_degree
            and a.require_labels == b.require_labels
            and (a.params or WatermarkParams()) == (b.params
                                                    or WatermarkParams())
            and (a.encoding_options or {}) == (b.encoding_options or {})
            and np.array_equal(a.values, b.values))


def _scan_groups(tasks: "list[DetectionTask]") -> "list[list[int]]":
    """Indices of tasks that can share one scan, in first-seen order."""
    groups: "list[list[int]]" = []
    # A few sampled items bucket the suspects so that distinct ones are
    # rarely compared in full; equality is still decided by _shares_scan.
    buckets: "dict[tuple, list[list[int]]]" = {}
    for index, task in enumerate(tasks):
        values = task.values
        sample = values[::max(1, values.size // 16)].tobytes()
        candidates = buckets.setdefault((values.size, sample), [])
        for group in candidates:
            if _shares_scan(tasks[group[0]], task):
                group.append(index)
                break
        else:
            candidates.append([index])
            groups.append(candidates[-1])
    return groups


def _run_scan(job: "tuple[DetectionTask, list]") -> list:
    """One scan of ``job``'s task, voting for each of its keys."""
    task, keys = job
    if len(keys) == 1:
        return [run_task(task)]
    from repro.core.detector import StreamDetector

    # float() as detect_watermark applies it on the run_task path.
    detector = StreamDetector(task.wm_length, keys, params=task.params,
                              encoding=task.encoding,
                              transform_degree=float(task.transform_degree),
                              require_labels=task.require_labels,
                              encoding_options=task.encoding_options)
    detector.run(task.values)
    return detector.results()


def run_tasks(tasks: "list[DetectionTask]",
              workers: "int | None" = None, metrics=None) -> list:
    """Run tasks serially (``workers`` in {None, 0, 1}) or in a pool.

    Tasks that differ only in ``key`` share one scan (see the module
    docstring); results come back in task order either way, so callers
    can zip them against their inputs.  The pool is sized
    ``min(workers, scans)`` — idle workers cost a fork each.

    ``metrics`` is an optional :class:`~repro.obs.MetricsRegistry`;
    counters are maintained parent-side (workers are separate
    processes, so instruments must not cross the pool boundary):
    ``detect_tasks_total`` counts every task, ``detect_scans_total``
    the scans that served them, ``detect_pool_tasks_total`` and
    ``detect_pool_batches_total`` only pool-dispatched work, and the
    ``detect_pool_utilization`` gauge reports tasks-per-slot of the
    latest batch (how full the requested pool actually ran).
    """
    if workers is not None and workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")
    m = metrics if metrics is not None else NULL_REGISTRY
    tasks = list(tasks)
    if not tasks:
        return []
    groups = _scan_groups(tasks)
    # split_spans caps the chunk count at the group size.
    per_group = math.ceil((workers or 1) / len(groups))
    jobs: "list[tuple[DetectionTask, list]]" = []
    owners: "list[list[int]]" = []
    for group in groups:
        for start, end in split_spans(len(group), per_group):
            chunk = group[start:end]
            jobs.append((tasks[chunk[0]], [tasks[i].key for i in chunk]))
            owners.append(chunk)
    m.counter("detect_tasks_total").inc(len(tasks))
    m.counter("detect_scans_total").inc(len(jobs))
    if workers is None or workers <= 1 or len(jobs) == 1:
        outputs = [_run_scan(job) for job in jobs]
    else:
        pool_size = min(workers, len(jobs))
        m.counter("detect_pool_tasks_total").inc(len(tasks))
        m.counter("detect_pool_batches_total").inc()
        m.gauge("detect_pool_workers").set(pool_size)
        m.gauge("detect_pool_utilization").set(round(len(tasks) / workers,
                                                     4))
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outputs = list(pool.map(_run_scan, jobs))
    results: list = [None] * len(tasks)
    for chunk, output in zip(owners, outputs):
        for index, result in zip(chunk, output):
            results[index] = result
    return results


def merge_results(results: "list", metrics=None):
    """Exact reduction of partial detection results (the merge law).

    Buckets, abstentions and scan counters are additive across disjoint
    evidence; the counter sum iterates the dataclass fields so a newly
    added counter participates automatically.  All parts must agree on
    watermark length and vote threshold — merging across different
    thresholds would make ``wm_estimate`` ill-defined.

    With ``metrics`` given, ``detect_span_merges_total`` counts merge
    operations and ``detect_merged_parts_total`` the partial results
    folded in.
    """
    from repro.core.detector import DetectionResult

    results = list(results)
    if not results:
        raise ParameterError("cannot merge zero detection results")
    m = metrics if metrics is not None else NULL_REGISTRY
    m.counter("detect_span_merges_total").inc()
    m.counter("detect_merged_parts_total").inc(len(results))
    first = results[0]
    wm_length = first.wm_length
    threshold = first.vote_threshold
    buckets_true = [0] * wm_length
    buckets_false = [0] * wm_length
    abstentions = 0
    counter_fields = [f.name for f in dataclasses.fields(ScanCounters)]
    counter_sums = {name: 0 for name in counter_fields}
    for result in results:
        if result.wm_length != wm_length:
            raise ParameterError(
                f"cannot merge results for {result.wm_length}-bit and "
                f"{wm_length}-bit watermarks"
            )
        if result.vote_threshold != threshold:
            raise ParameterError(
                "cannot merge results with different vote thresholds "
                f"({result.vote_threshold} vs {threshold})"
            )
        for i in range(wm_length):
            buckets_true[i] += result.buckets_true[i]
            buckets_false[i] += result.buckets_false[i]
        abstentions += result.abstentions
        for name in counter_fields:
            counter_sums[name] += getattr(result.counters, name)
    return DetectionResult(buckets_true=buckets_true,
                           buckets_false=buckets_false,
                           counters=ScanCounters(**counter_sums),
                           abstentions=abstentions,
                           vote_threshold=threshold)


def split_spans(n_items: int, n_spans: int,
                min_span: int = 1) -> "list[tuple[int, int]]":
    """Contiguous ``[start, end)`` spans covering ``range(n_items)``.

    Deterministic (earlier spans take the remainder) and never returns
    a span shorter than ``min_span`` — the span count is reduced
    instead, so a short stream degrades to fewer, larger parts rather
    than to window-sized fragments that would lose most of their votes
    to scanner warmup.
    """
    if n_items < 1:
        raise ParameterError(f"n_items must be >= 1, got {n_items}")
    if n_spans < 1:
        raise ParameterError(f"n_spans must be >= 1, got {n_spans}")
    if min_span < 1:
        raise ParameterError(f"min_span must be >= 1, got {min_span}")
    n_spans = max(1, min(n_spans, n_items // max(min_span, 1)) or 1)
    base = n_items // n_spans
    remainder = n_items % n_spans
    spans: "list[tuple[int, int]]" = []
    start = 0
    for index in range(n_spans):
        length = base + (1 if index < remainder else 0)
        spans.append((start, start + length))
        start += length
    return spans


def detect_watermark_spans(values, wm_length, key,
                           params: "WatermarkParams | None" = None,
                           encoding: str = "multihash",
                           transform_degree: float = 1.0,
                           require_labels: bool = True,
                           encoding_options: "dict | None" = None,
                           spans: int = 4,
                           workers: "int | None" = None,
                           metrics=None):
    """Span-parallel detection of one long stream, merged exactly.

    The stream is cut into ``spans`` contiguous ranges (each at least
    eight windows long — see :func:`split_spans`), each range is scanned
    independently (in ``workers`` processes when given), and the partial
    votes are reduced with :func:`merge_results`.  See the module
    docstring for the boundary-warmup caveat.
    """
    array = np.asarray(values, dtype=np.float64).ravel()
    if array.size == 0:
        raise ParameterError("cannot detect in an empty stream")
    params = params or WatermarkParams()
    ranges = split_spans(array.size, spans,
                         min_span=8 * params.window_size)
    tasks = [DetectionTask(values=array[start:end], wm_length=wm_length,
                           key=key, params=params, encoding=encoding,
                           transform_degree=transform_degree,
                           require_labels=require_labels,
                           encoding_options=encoding_options)
             for (start, end) in ranges]
    return merge_results(run_tasks(tasks, workers=workers, metrics=metrics),
                         metrics=metrics)

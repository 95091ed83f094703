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
:class:`~repro.core.detector.StreamDetector`.  When a group has more
than one key and more than one pool slot (``ceil(workers / n_groups)``),
the calling process runs that scan without voting
(:meth:`~repro.core.detector.StreamDetector.record`): per labelled
major extreme it keeps the framed selection message, the characteristic
subset as bytes, the extreme's offset in it and its label.  The keyed
pass — each key's selection hash, the multi-hash evidence and each
vote — then runs over ``min(len(group), ceil(workers / n_groups),
len(record))`` contiguous slices of that record, and each key's slices
merge by the law above.  Every result is field-for-field what
:func:`run_task` gives for its task (property-tested).  Span tasks and
degree sweeps never group.

The one approximation lives in *where the split cuts*: span-parallel
detection of a single stream re-warms the scanner at each span boundary
(window fill, label history), so a handful of extremes near each cut
may be skipped relative to the single-pass scan.  The merge itself adds
no error; with spans much longer than the window the vote loss is a few
votes per cut, and :func:`split_spans` refuses to produce spans shorter
than a window multiple for exactly that reason.

Workers are processes, not threads — the hot loops are pure Python and
hold the GIL.  A call that uses a pool runs the first contiguous share
of its jobs itself and hands the rest to a fresh ``ProcessPoolExecutor``
of ``min(workers, jobs) - 1`` processes, joined before the call
returns, so the workers' CPU time shows in ``RUSAGE_CHILDREN``.  A job
ships the detection configuration, its keys, and either its suspect
(a scan) or one record slice (votes), never both;
:class:`~repro.util.hashing.KeyedHasher` carries a ``__reduce__`` for
the keys.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

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


def _check_workers(workers: "int | None") -> None:
    """``workers`` None, 0 and 1 mean serial; a negative count is an error."""
    if workers is not None and workers < 0:
        raise ParameterError(f"workers must be >= 0, got {workers}")


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


def _config(task: DetectionTask) -> dict:
    """Keyword arguments of a detector for ``task``, bar the key."""
    # float() as detect_watermark applies it on the run_task path.
    return {"wm_length": task.wm_length, "params": task.params,
            "encoding": task.encoding,
            "transform_degree": float(task.transform_degree),
            "require_labels": task.require_labels,
            "encoding_options": task.encoding_options}


def _scan(task: DetectionTask, keys: list) -> list:
    """One scan of ``task``'s values, voting for each of ``keys``."""
    if len(keys) == 1:
        return [run_task(task)]
    from repro.core.detector import StreamDetector

    detector = StreamDetector(key=keys, **_config(task))
    detector.run(task.values)
    return detector.results()


def _vote(config: dict, keys: list, entries: list) -> list:
    """Each key's votes on one slice of a recorded scan."""
    from repro.core.detector import StreamDetector

    detector = StreamDetector(key=keys, **config)
    detector.vote_record(entries)
    return detector.results()


@dataclass
class _GroupPlan:
    """How the tasks at ``indices`` get their results.

    ``calls`` are picklable zero-argument callables, each returning one
    result per task.  With ``scanned`` None the group is one call that
    scans and votes; otherwise the caller has scanned it, ``scanned``
    holds the scan's vote-free results, and each call votes one record
    slice.
    """

    indices: "list[int]"
    calls: list
    scanned: "list | None" = None


def _plan(tasks: "list[DetectionTask]",
          workers: "int | None") -> "list[_GroupPlan]":
    """Group the tasks by shared scan and cut each group into calls.

    A group with more than one key and more than one pool slot is
    scanned here, in the calling process, and its record is cut into
    ``min(len(group), ceil(workers / n_groups), len(record))``
    contiguous slices.  Every other group is one call.  Planning starts
    no process.
    """
    from repro.core.detector import StreamDetector

    groups = _scan_groups(tasks)
    slots = math.ceil((workers or 1) / len(groups))
    plans: "list[_GroupPlan]" = []
    for group in groups:
        task = tasks[group[0]]
        keys = [tasks[i].key for i in group]
        if min(len(keys), slots) == 1:
            plans.append(_GroupPlan(group, [partial(_scan, task, keys)]))
            continue
        config = _config(task)
        detector = StreamDetector(key=keys, **config)
        record = detector.record(task.values)
        # split_spans caps the slice count at the record length.
        slices = split_spans(len(record), min(len(keys), slots)) \
            if record else []
        plans.append(_GroupPlan(
            group, [partial(_vote, config, keys, record[start:end])
                    for start, end in slices], detector.results()))
    return plans


def _dispatch(calls: list, parts: int) -> list:
    """Every call's output, in call order.

    With ``parts`` > 1 the caller runs the first of ``parts`` contiguous
    shares and a fresh pool of ``parts - 1`` processes runs the rest;
    the pool is joined before this returns.
    """
    if parts <= 1:
        return [call() for call in calls]
    share = split_spans(len(calls), parts)[0][1]
    with ProcessPoolExecutor(max_workers=parts - 1) as pool:
        futures = [pool.submit(call) for call in calls[share:]]
        outputs = [call() for call in calls[:share]]
        return outputs + [future.result() for future in futures]


def run_tasks(tasks: "list[DetectionTask]",
              workers: "int | None" = None, metrics=None) -> list:
    """Run tasks serially (``workers`` in {None, 0, 1}) or with a pool.

    Tasks that differ only in ``key`` share one scan (see the module
    docstring); results come back in task order either way, so callers
    can zip them against their inputs.  The jobs are one scan per
    group, or the vote slices of a group the caller scanned.  With
    ``parts = min(workers, jobs)`` above 1, the caller runs the first
    of ``parts`` contiguous shares of the jobs and a fresh pool of
    ``parts - 1`` processes the rest.

    ``metrics`` is an optional :class:`~repro.obs.MetricsRegistry`;
    counters are maintained parent-side (workers are separate
    processes, so instruments must not cross the pool boundary):
    ``detect_tasks_total`` counts every task, ``detect_scans_total``
    the scans that served them (one per group),
    ``detect_pool_tasks_total`` and ``detect_pool_batches_total`` only
    pool-dispatched work, and the ``detect_pool_workers`` gauge the
    processes the latest pooled call started.
    """
    _check_workers(workers)
    m = metrics if metrics is not None else NULL_REGISTRY
    tasks = list(tasks)
    if not tasks:
        return []
    plans = _plan(tasks, workers)
    calls = [call for plan in plans for call in plan.calls]
    parts = min(workers or 1, len(calls))
    m.counter("detect_tasks_total").inc(len(tasks))
    m.counter("detect_scans_total").inc(len(plans))
    if parts > 1:
        m.counter("detect_pool_tasks_total").inc(len(tasks))
        m.counter("detect_pool_batches_total").inc()
        m.gauge("detect_pool_workers").set(parts - 1)
    outputs = iter(_dispatch(calls, parts))
    results: list = [None] * len(tasks)
    for plan in plans:
        done = [next(outputs) for _ in plan.calls]
        if plan.scanned is None:
            per_task = done[0]
        else:
            per_task = [merge_results(pieces)
                        for pieces in zip(plan.scanned, *done)]
        for index, result in zip(plan.indices, per_task):
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
